"""Built-in example configurations.

Five fixtures cover: the ground field, an order-2 sign twist on dual
numbers, an order-3 shift on a split three-line algebra (abelian, lets
powers of the generator be compared), the full symmetric group on three
lines (non-abelian, conjugacy classes of sizes 1/3/2), and an order-2
twist on a longer truncated polynomial algebra.  They come from two
families: Q^n acted on by permutations of its points (the ground field is
Q^1), and Q[x]/(x^m) with x -> -x (dual numbers at m = 2).

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


def _points_fixture(name, perms, names, task):
    """Q^n acted on by a group of permutations of its n points."""
    algebra, actions = _points_algebra_spec(len(perms[0]), perms, names)
    group = _perm_group(perms, names)
    group["action"] = actions
    return {"name": name, "algebra": algebra, "group": group, "task": task}


def _trunc_poly_fixture(name, m):
    """Q[x]/(x^m), basis (1, x, x2, ...), acted on by x -> -x."""
    basis = ["1", "x"] + [f"x{k}" for k in range(2, m)]

    def diagonal(entry):
        return [[entry(i) if i == j else "0" for j in range(m)] for i in range(m)]

    return {
        "name": name,
        "algebra": {
            "dim": m,
            "basis": basis,
            "unit_index": 0,
            "mult": [
                [["1" if k == i + j else "0" for k in range(m)] for j in range(m)]
                for i in range(m)
            ],
        },
        "group": {
            "elements": ["e", "s"],
            "table": [[0, 1], [1, 0]],
            "action": {
                "e": diagonal(lambda i: "1"),
                "s": diagonal(lambda i: "-1" if i % 2 else "1"),
            },
        },
        "task": {"max_degree": 3, "twist": "s"},
    }


FIXTURES = {
    f["name"]: f
    for f in (
        _points_fixture("ground-field", [(1,)], ["e"], {"max_degree": 3}),
        _trunc_poly_fixture("trunc-poly-z2", 2),
        _points_fixture(
            "triple-lines-z3", [(1, 2, 3), (2, 3, 1), (3, 1, 2)], ["e", "s", "s2"],
            {"max_degree": 3, "twist": "s"},
        ),
        _points_fixture(
            "triple-lines-s3",
            [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)],
            ["e", "t12", "t13", "t23", "c123", "c132"],
            {"max_degree": 2},
        ),
        _trunc_poly_fixture("trunc-cubic-z2", 3),
    )
}


def fixture_names():
    return list(FIXTURES)


def fixture_config(name):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return FIXTURES[name]
