from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from thl.algebra import (
    Algebra,
    AlgebraMap,
    FiniteGroupAction,
    algebra_tensor_basis,
    conjugacy_data,
    crossed_product,
    tensor_index,
    tensor_operator,
    trivial_group,
    validate_action,
    validate_algebra,
    validate_automorphism,
)
from thl.errors import ActionError, AlgebraError, ReducedBasisError
from thl.rational import Q
from thl.sparse import QMatrix

from oracles import dense_rank, reference_tensor_operator
from fixtures_for_tests import (
    dual_numbers_algebra,
    sign_twist,
    s3_group,
    triple_lines_algebra,
    z2_group,
    z3_group,
)


def test_validate_dual_numbers():
    validate_algebra(dual_numbers_algebra())


def test_validate_q3_coordinatewise():
    validate_algebra(triple_lines_algebra())


def test_validate_rejects_nonassociative():
    # x.x = y, x.y = 1, y.x = 0: then (x.x).x = 0 but x.(x.x) = 1
    bad = Algebra(
        3,
        ["1", "x", "y"],
        {0: 1},
        [
            [{0: 1}, {1: 1}, {2: 1}],
            [{1: 1}, {2: 1}, {0: 1}],
            [{2: 1}, {}, {}],
        ],
    )
    with pytest.raises(AlgebraError) as err:
        validate_algebra(bad)
    assert "associativity" in str(err.value)
    assert "x" in str(err.value)


def test_validate_action_sign_twist():
    A = dual_numbers_algebra()
    validate_action(A, z2_group(A))


def test_validate_action_shift():
    A = triple_lines_algebra()
    validate_action(A, z3_group(A))


def test_action_rejects_unit_breaker():
    A = dual_numbers_algebra()
    bad = AlgebraMap(QMatrix.from_dense([[2, 0], [0, 1]]))  # g(1) = 2
    G = FiniteGroupAction(["e", "s"], [[0, 1], [1, 0]], [AlgebraMap.identity(2), bad])
    with pytest.raises(ActionError):
        validate_action(A, G)


def test_crossed_product_trivial_group():
    A = dual_numbers_algebra()
    AG = crossed_product(A, trivial_group(A))
    assert AG.dim == 2
    assert AG.basis_product(0, 1) == A.basis_product(0, 1)


def test_crossed_product_convention():
    """(1 x| g)(x x| e) = (g(x) x| g) = (-x x| g)."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    AG = crossed_product(A, G)
    # basis order: (i, j) -> i*r + j; (1 x| s) = index 1, (x x| e) = index 2
    prod = AG.basis_product(0 * 2 + 1, 1 * 2 + 0)
    assert prod == {1 * 2 + 1: Q(-1)}


def test_crossed_product_dimension():
    A = dual_numbers_algebra()
    assert crossed_product(A, z2_group(A)).dim == 4


def test_crossed_product_conjugation_embedding():
    """(1 x| h)(a x| e)(1 x| h^-1) = (h(a) x| e) for all h and basis a."""
    for A, G in [
        (dual_numbers_algebra(), None),
        (triple_lines_algebra(), None),
    ]:
        G = z2_group(A) if A.dim == 2 else z3_group(A)
        AG = crossed_product(A, G)
        r = G.order
        for h in range(r):
            hinv = G.inverse[h]
            for a in range(A.dim):
                lhs = AG.multiply(
                    AG.multiply({0 * r + h: Q(1)}, {a * r + G.identity_index: Q(1)}),
                    {0 * r + hinv: Q(1)},
                )
                expected = {
                    m * r + G.identity_index: v
                    for m, v in G.action[h].image_of_basis(a).items()
                }
                assert lhs == expected


def test_conjugacy_z2():
    A = dual_numbers_algebra()
    data = conjugacy_data(z2_group(A))
    assert [len(c) for c in data.classes] == [1, 1]
    assert all(len(c) == 2 for c in data.centralizers)


def test_conjugacy_z3():
    A = triple_lines_algebra()
    data = conjugacy_data(z3_group(A))
    assert [len(c) for c in data.classes] == [1, 1, 1]


def test_conjugacy_s3():
    A = triple_lines_algebra()
    G = s3_group(A)
    data = conjugacy_data(G)
    assert sorted(len(c) for c in data.classes) == [1, 2, 3]
    assert sum(G.order // len(cent) for cent in data.centralizers) != 0
    for cls, cent in zip(data.classes, data.centralizers):
        assert len(cls) * len(cent) == G.order
        assert G.order % len(cent) == 0


def test_tensor_index_counts():
    A = dual_numbers_algebra()
    G = z2_group(A)
    assert tensor_index(G, A, 0, 1, reduced=False).size == 8
    assert tensor_index(G, A, 0, 1).size == 4
    A3 = triple_lines_algebra()
    G3 = z3_group(A3)
    assert tensor_index(G3, A3, 1, 0, reduced=False).size == 27


def test_tensor_index_roundtrip():
    A3 = triple_lines_algebra()
    G3 = z3_group(A3)
    basis = tensor_index(G3, A3, 1, 2)
    for idx in range(basis.size):
        gt, at = basis.decode(idx)
        assert basis.encode(gt, at) == idx
        assert all(a >= 1 for a in at[1:])


def test_tensor_operator_cancelled_entries_and_lowest_terms():
    # +1 and -1 times the identity, one per tensor and one along a run over
    # every slot, cancel in every column, next to 3 times a shift over 6
    A3 = triple_lines_algebra()
    basis = algebra_tensor_basis(A3, 2, reduced=False)
    m = tensor_operator(basis, basis, [
        (0, range(0), lambda _, a: [(1, (), a)]),
        (0, range(1, 2), lambda _, a: [(3, (), ((a[0] + 1) % 3,))]),
        (0, range(2), lambda _, a: [(-1, (), ())]),
    ], den=6)
    assert all(len(c) == 1 and 0 not in c.values() for c in m._cols)
    assert m.den == 2 and all(gcd(m.den, *c.values()) == 1 for c in m._cols)
    assert m == reference_tensor_operator(
        basis, basis, lambda _, a: [(3, (), ((a[0] + 1) % 3, a[1]))], 6
    )


def test_tensor_operator_runs_of_no_slot_and_of_every_slot():
    A3 = triple_lines_algebra()
    G3 = z3_group(A3)
    basis = tensor_index(G3, A3, 1, 2)

    def move(g):
        return g[1:] + (G3.product(g),)

    expected = reference_tensor_operator(basis, basis, lambda g, a: [(2, move(g), a)])
    for head, run in ((0, range(0)), (0, range(3)), (3, range(3, 3)), (1, range(2, 3))):
        terms = [(head, run, lambda g, a: [(2, move(g), a)])]
        assert tensor_operator(basis, basis, terms) == expected


def test_tensor_operator_leading_and_trailing_runs():
    # the face (a_0, ..., a_3) -> sign (..., a_i a_{i+1}, ...) on the 9-dim
    # Q^3 x| Z/3, whose products have unit parts that reduced target slots
    # drop, stated with a copied head, a copied run, or both
    cp = crossed_product(triple_lines_algebra(), z3_group(triple_lines_algebra()))
    d = cp.dim
    prod = [{k: int(v) for k, v in cp.basis_product(x, y).items()}
            for x in range(d) for y in range(d)]
    for reduced in (False, True):
        src = algebra_tensor_basis(cp, 4, reduced)
        dst = algebra_tensor_basis(cp, 3, reduced)
        for i, sign in ((0, 1), (1, -3), (2, 5)):
            def face(_, a):
                return [(sign, (), a[:i] + (prod[a[i] * d + a[i + 1]],) + a[i + 2 :])]

            expected = reference_tensor_operator(src, dst, face)
            for head, run in ((i, range(i + 2, 4)), (i, range(4, 4)), (0, range(i + 2, 4))):
                def fn(_, a, head=head):
                    # a holds the slots from head up to the run
                    rest = a[: i - head] + (prod[a[i - head] * d + a[i - head + 1]],)
                    return [(sign, (), rest + a[i - head + 2 :])]

                assert tensor_operator(src, dst, [(head, run, fn)]) == expected


def test_tensor_operator_run_keeps_reduction():
    # copied runs and heads whose slots change reduction, and a head over the run
    A3 = triple_lines_algebra()
    full = algebra_tensor_basis(A3, 2, reduced=False)
    reduced = algebra_tensor_basis(A3, 2)
    for head, run in ((0, range(1, 2)), (2, range(2, 2)), (1, range(1, 2))):
        with pytest.raises(ValueError):
            tensor_operator(full, reduced, [(head, run, lambda _, a: [(1, (), a)])])
    with pytest.raises(ValueError):
        tensor_operator(reduced, reduced, [(2, range(1, 2), lambda _, a: [(1, (), a)])])


def test_from_integers_adopts_columns_in_place():
    # the kernel hands its accumulated sums here: zeros are deleted and the
    # common factor divided out without a second copy of the columns
    cols = [{0: 4, 1: 0}, {}, {1: 6, 2: -2}, {0: 0}]
    m = QMatrix.from_integers(3, cols, 10)
    assert all(a is b for a, b in zip(m._cols, cols))
    assert cols == [{0: 2}, {}, {1: 3, 2: -1}, {}] and m.den == 5


def test_reduced_needs_unit_basis_vector():
    # coordinatewise Q^2 with basis the two idempotents: unit is (1,1)
    A = Algebra(2, ["p", "q"], {0: 1, 1: 1}, [[{0: 1}, {}], [{}, {1: 1}]])
    validate_algebra(A)
    with pytest.raises(ReducedBasisError):
        algebra_tensor_basis(A, 2)


def test_group_table_validation():
    A = dual_numbers_algebra()
    with pytest.raises(ActionError):
        FiniteGroupAction(["e", "s"], [[0, 1], [1, 1]], [AlgebraMap.identity(2)] * 2)


# -- validation messages -----------------------------------------------------

def _broken(name, path, value):
    """The fixture config name with the entry at path replaced by value."""
    import copy

    from thl.fixtures import fixture_config

    data = copy.deepcopy(fixture_config(name))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


BROKEN = [
    # x.x = 1/2 over a rational denominator: (x x) x2 = x2/2, x (x x2) = 0
    (("trunc-cubic-z2", ("algebra", "mult", 1, 1), ["1/2", "0", "0"]),
     "associativity fails on triple (x, x, x2)"),
    (("trunc-cubic-z2", ("algebra", "mult", 1, 1), ["1", "0", "0"]),
     "associativity fails on triple (x, x, x2)"),
    (("trunc-cubic-z2", ("algebra", "unit_index"), 1), "unit law fails on basis vector 1"),
    # s(x) = 2x, so s(x x) = x2 but s(x) s(x) = 4 x2
    (("trunc-cubic-z2", ("group", "action", "s"), [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]),
     "s: not multiplicative on (x, x)"),
    (("trunc-cubic-z2", ("group", "action", "s"),
      [["1", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"]]),
     "s: not multiplicative on (x, x)"),
]


@pytest.mark.parametrize("broken, message", BROKEN)
def test_validation_names_what_fails(broken, message, tmp_path, capsys):
    """A config with a broken associativity triple, unit law or action is
    refused with exit 2, and the message names the triple, the basis vector
    or the element and pair, through the command line and the library."""
    import json

    from thl.cli import main
    from thl.config import config_from_dict
    from thl.errors import ValidationError

    data = _broken(*broken)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"thl: {message}\n"
    with pytest.raises(ValidationError) as err:
        config_from_dict(data)
    assert str(err.value) == message


def test_validate_algebra_and_action_name_the_failure():
    A = Algebra(
        3, ["1", "x", "x2"], {0: 1},
        [[{0: 1}, {1: 1}, {2: 1}], [{1: 1}, {0: Q(1, 2)}, {}], [{2: 1}, {}, {}]],
    )
    with pytest.raises(AlgebraError) as err:
        validate_algebra(A)
    assert str(err.value) == "associativity fails on triple (x, x, x2)"
    C = Algebra(
        3, ["1", "x", "x2"], {0: 1},
        [[{0: 1}, {1: 1}, {2: 1}], [{1: 1}, {2: 1}, {}], [{2: 1}, {}, {}]],
    )
    validate_algebra(C)
    half = AlgebraMap(QMatrix.from_dense([[1, 0, 0], [0, Q(1, 2), 0], [0, 0, 1]]))
    group = FiniteGroupAction(["e", "s"], [[0, 1], [1, 0]], [AlgebraMap.identity(3), half])
    with pytest.raises(ActionError) as err:
        validate_action(C, group)
    assert str(err.value) == "s: not multiplicative on (x, x)"


# -- first failure order and a reference oracle --------------------------------

def _table(d, products):
    """The structure constants of unit e_0 with the products {(i, j): {k: c}}
    of the other basis vectors (a missing product is zero)."""
    return [
        [{j: 1} if i == 0 else {i: 1} if j == 0 else products.get((i, j), {}) for j in range(d)]
        for i in range(d)
    ]


# Q[x]/(x^4): g(x) = x, g(x2) = x2 and g(x3) = 2 x3 fails on (x, x2) and (x2, x)
QUARTIC = _table(4, {(1, 1): {2: 1}, (1, 2): {3: 1}, (2, 1): {3: 1}})
STRETCH_X3 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]

FIRST_FAILURES = [
    # y y = 1 and every other product of x, y zero: (x y) y = 0 but
    # x (y y) = x, and (y y) x = x but y (y x) = 0; the first triple in
    # lexicographic order is named, not (y, y, x)
    (["1", "x", "y"], _table(3, {(2, 2): {0: 1}}), None,
     "associativity fails on triple (x, y, y)"),
    # e_0 is a left unit, but x 1 = y 1 = 0
    (["1", "x", "y"], [[{0: 1}, {1: 1}, {2: 1}], [{}, {}, {}], [{}, {}, {}]], None,
     "unit law fails on basis vector x"),
    # e_0 fails on the left on y only and on the right on x only
    (["1", "x", "y"], [[{0: 1}, {1: 1}, {}], [{}, {}, {}], [{2: 1}, {}, {}]], None,
     "unit law fails on basis vector x"),
    (["1", "x", "x2", "x3"], QUARTIC, STRETCH_X3, "g: not multiplicative on (x, x2)"),
]


@pytest.mark.parametrize("names, mult, g, message", FIRST_FAILURES)
def test_validation_names_the_first_failure(names, mult, g, message):
    """Of several failing triples, basis vectors or pairs, the message
    names the first: triples and pairs in lexicographic order, and the
    smallest basis vector on which either unit law fails; the reference
    loop below finds more than one failure in each case."""
    A = Algebra(len(names), names, {0: 1}, mult)
    table = _dense_table(A.dim, mult)
    if g is None:
        units, triples = _algebra_failures(table, [1] + [0] * (A.dim - 1))
        assert len(units or triples) > 1
        with pytest.raises(AlgebraError) as err:
            validate_algebra(A)
    else:
        assert len(_multiplicativity_failures(table, g)) > 1
        with pytest.raises(ActionError) as err:
            validate_automorphism(A, AlgebraMap(QMatrix.from_dense(g)))
    assert str(err.value) == message


def _dense_table(d, mult):
    return [[[Fraction(mult[i][j].get(k, 0)) for k in range(d)] for j in range(d)] for i in range(d)]


def _product(table, a, b):
    """a b, for dense Fraction vectors, from the structure constants."""
    d = len(a)
    return [
        sum(a[i] * b[j] * table[i][j][k] for i in range(d) for j in range(d)) for k in range(d)
    ]


def _image(g, v):
    return [sum(g[r][c] * v[c] for c in range(len(v))) for r in range(len(v))]


def _algebra_failures(table, unit):
    """The basis vectors failing a unit law and the triples failing
    associativity, each in ascending order."""
    d = len(unit)
    e = [[Fraction(int(i == k)) for k in range(d)] for i in range(d)]
    units = [i for i in range(d)
             if _product(table, unit, e[i]) != e[i] or _product(table, e[i], unit) != e[i]]
    triples = [(i, j, k) for i, j, k in product(range(d), repeat=3)
               if _product(table, table[i][j], e[k]) != _product(table, e[i], table[j][k])]
    return units, triples


def _multiplicativity_failures(table, g):
    """The pairs (i, j) with g(e_i e_j) != g(e_i) g(e_j), ascending."""
    d = len(g)
    col = [[Fraction(g[r][c]) for r in range(d)] for c in range(d)]
    return [(i, j) for i, j in product(range(d), repeat=2)
            if _image(g, table[i][j]) != _product(table, col[i], col[j])]


ENTRIES = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)])


@st.composite
def algebras_and_maps(draw):
    """Structure constants of dim 2 or 3 with unit e_0, whose unit row and
    column are kept, for the unit laws to hold, unless a draw overwrites
    them, and a map g that keeps e_0 unless a draw moves it."""
    d = draw(st.integers(2, 3))
    table = [[[draw(ENTRIES) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    if draw(st.booleans()):
        for i in range(d):
            table[0][i] = table[i][0] = [Fraction(int(i == k)) for k in range(d)]
    g = [[draw(ENTRIES) for _ in range(d)] for _ in range(d)]
    if draw(st.booleans()):
        for r in range(d):
            g[r][0] = Fraction(int(r == 0))
    return table, g


@settings(max_examples=200, deadline=None)
@given(algebras_and_maps())
def test_algebra_and_automorphism_checks_match_a_reference_loop(case):
    """validate_algebra and validate_automorphism raise exactly when a plain
    Fraction loop over every basis vector, triple and pair finds a failure,
    and name the first failure it finds."""
    table, g = case
    d = len(table)
    names = ["1", "x", "y"][:d]
    A = Algebra(d, names, {0: 1}, [[{k: v for k, v in enumerate(c)} for c in row] for row in table])
    units, triples = _algebra_failures(table, [Fraction(int(k == 0)) for k in range(d)])
    if units:
        expected = f"unit law fails on basis vector {names[units[0]]}"
    elif triples:
        expected = "associativity fails on triple ({}, {}, {})".format(*[names[t] for t in triples[0]])
    else:
        expected = None
    try:
        validate_algebra(A)
        got = None
    except AlgebraError as err:
        got = str(err)
    assert got == expected

    pairs = _multiplicativity_failures(table, g)
    if _image(g, [Fraction(int(k == 0)) for k in range(d)]) != [Fraction(int(k == 0)) for k in range(d)]:
        expected = "g: does not fix the unit"
    elif pairs:
        expected = "g: not multiplicative on ({}, {})".format(*[names[t] for t in pairs[0]])
    elif dense_rank(g) != d:
        expected = "g: matrix is singular"
    else:
        expected = None
    try:
        validate_automorphism(A, AlgebraMap(QMatrix.from_dense(g)))
        got = None
    except ActionError as err:
        got = str(err)
    assert got == expected
