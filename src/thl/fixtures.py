"""Built-in example configurations.

Five fixtures cover: the ground field, an order-2 sign twist on dual
numbers, an order-3 shift on a split three-line algebra (abelian, lets
powers of the generator be compared), the full symmetric group on three
lines (non-abelian, conjugacy classes of sizes 1/3/2), and an order-2
twist on a longer truncated polynomial algebra.

Point-permutation algebras are rebased so that the unit is basis vector
0, which the normalized (reduced) tensor modules require.
"""

from fractions import Fraction


def _points_algebra_spec(n_points, perms, names):
    """Q^n with coordinatewise product, basis (1, e_2, ..., e_n), acted on
    by the given permutations of the points (1-indexed tuples)."""
    d = n_points
    basis = ["1"] + [f"e{i}" for i in range(2, d + 1)]

    def to_new(vec):
        """Old coordinates (point idempotents) -> new basis coordinates."""
        # e_1 = 1 - sum e_i ; e_i = basis i-1 for i >= 2
        out = [Fraction(0)] * d
        out[0] = vec[0]
        for i in range(1, d):
            out[i] = vec[i] - vec[0]
        return out

    def old_unit(i):
        v = [Fraction(0)] * d
        v[i] = Fraction(1)
        return v

    # new basis vectors in old coordinates
    new_in_old = [[Fraction(1)] * d] + [old_unit(i) for i in range(1, d)]

    mult = []
    for i in range(d):
        row = []
        for j in range(d):
            prod_old = [a * b for a, b in zip(new_in_old[i], new_in_old[j])]
            row.append([str(c) for c in to_new(prod_old)])
        mult.append(row)

    actions = {}
    for name, perm in zip(names, perms):
        cols = []
        for j in range(d):
            img_old = [Fraction(0)] * d
            for p in range(d):
                if new_in_old[j][p]:
                    img_old[perm[p] - 1] += new_in_old[j][p]
            cols.append(to_new(img_old))
        actions[name] = [[str(cols[j][i]) for j in range(d)] for i in range(d)]

    return {
        "dim": d,
        "basis": basis,
        "unit_index": 0,
        "mult": mult,
    }, actions


def _perm_group(perms, names):
    """Multiplication table of a list of permutations (tuples, 1-indexed)."""
    idx = {p: i for i, p in enumerate(perms)}
    table = []
    for a in perms:
        row = []
        for b in perms:
            comp = tuple(a[b[i] - 1] for i in range(len(a)))
            row.append(idx[comp])
        table.append(row)
    return {"elements": list(names), "table": table}


def _ground_field():
    return {
        "name": "ground-field",
        "algebra": {
            "dim": 1,
            "basis": ["1"],
            "unit_index": 0,
            "mult": [[["1"]]],
        },
        "group": {
            "elements": ["e"],
            "table": [[0]],
            "action": {"e": [["1"]]},
        },
        "task": {"max_degree": 3},
    }


def _trunc_poly_z2():
    return {
        "name": "trunc-poly-z2",
        "algebra": {
            "dim": 2,
            "basis": ["1", "x"],
            "unit_index": 0,
            "mult": [
                [["1", "0"], ["0", "1"]],
                [["0", "1"], ["0", "0"]],
            ],
        },
        "group": {
            "elements": ["e", "s"],
            "table": [[0, 1], [1, 0]],
            "action": {
                "e": [["1", "0"], ["0", "1"]],
                "s": [["1", "0"], ["0", "-1"]],
            },
        },
        "task": {"max_degree": 3, "twist": "s"},
    }


def _triple_lines_z3():
    perms = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    names = ["e", "s", "s2"]
    algebra, actions = _points_algebra_spec(3, perms, names)
    group = _perm_group(perms, names)
    group["action"] = actions
    return {
        "name": "triple-lines-z3",
        "algebra": algebra,
        "group": group,
        "task": {"max_degree": 3, "twist": "s"},
    }


def _triple_lines_s3():
    perms = [
        (1, 2, 3),
        (2, 1, 3),
        (3, 2, 1),
        (1, 3, 2),
        (2, 3, 1),
        (3, 1, 2),
    ]
    names = ["e", "t12", "t13", "t23", "c123", "c132"]
    algebra, actions = _points_algebra_spec(3, perms, names)
    group = _perm_group(perms, names)
    group["action"] = actions
    return {
        "name": "triple-lines-s3",
        "algebra": algebra,
        "group": group,
        "task": {"max_degree": 2},
    }


def _trunc_cubic_z2():
    return {
        "name": "trunc-cubic-z2",
        "algebra": {
            "dim": 3,
            "basis": ["1", "x", "x2"],
            "unit_index": 0,
            "mult": [
                [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
            ],
        },
        "group": {
            "elements": ["e", "s"],
            "table": [[0, 1], [1, 0]],
            "action": {
                "e": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "s": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
            },
        },
        "task": {"max_degree": 3, "twist": "s"},
    }


FIXTURES = {
    f["name"]: f
    for f in (
        _ground_field(),
        _trunc_poly_z2(),
        _triple_lines_z3(),
        _triple_lines_s3(),
        _trunc_cubic_z2(),
    )
}


def fixture_names():
    return list(FIXTURES)


def fixture_config(name):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return FIXTURES[name]
