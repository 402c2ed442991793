import os
from fractions import Fraction
from types import SimpleNamespace

import pytest

from thl.algebra import AlgebraMap
from thl.complexes import homology
from thl.config import load_config, load_fixture
from thl.errors import WellDefinednessError
from thl.fixtures import fixture_names
from thl.quotient import coinvariant_relations
from thl.rational import Q
from thl.sparse import QMatrix, image_basis, rank
from thl.twisted import (
    HKBicomplex,
    TwistedOperators,
    connes_complex,
    cyclic_operator,
    twist_matrix,
    twisted_B,
    twisted_b,
    twisted_cyclic,
    twisted_hochschild,
)

from fixtures_for_tests import (
    dual_numbers_algebra,
    ground_field_algebra,
    s3_group,
    shift_autom,
    sign_twist,
    triple_lines_algebra,
    trunc_cubic_algebra,
)
import oracles


def _as_dense_algebra(algebra):
    d = algebra.dim
    table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, v in algebra.basis_product(i, j).items():
                table[i][j][k] = v
    unit = [Fraction(0)] * d
    for k, v in algebra.unit.items():
        unit[k] = v
    return oracles.DenseAlgebra(d, table, unit)


def _as_dense_map(amap):
    d = amap.dim
    return [[amap.matrix.entry(i, j) for j in range(d)] for i in range(d)]


def test_twist_matrix_identity():
    A = dual_numbers_algebra()
    assert twist_matrix(A, AlgebraMap.identity(2), 2) == QMatrix.identity(8)


def test_twist_matrix_sign_values():
    A = dual_numbers_algebra()
    g = sign_twist(A)
    t = twist_matrix(A, g, 1)
    # full basis at n = 1 enumerates (a0, a1) lexicographically
    xx = 1 * 2 + 1
    unit_x = 0 * 2 + 1
    assert t.entry(xx, xx) == Q(1)          # signs cancel on x (x) x
    assert t.entry(unit_x, unit_x) == Q(-1)  # one slot flips


def test_twisted_b_hand_values():
    A = dual_numbers_algebra()
    g = sign_twist(A)
    b1 = twisted_b(A, g, 1)
    assert b1.column(0 * 2 + 1) == {1: Q(2)}   # b(1 (x) x) = 2x
    assert b1.column(1 * 2 + 1) == {}          # b(x (x) x) = 0
    assert twisted_b(A, AlgebraMap.identity(2), 1).is_zero()  # commutative, untwisted


def test_twisted_B_hand_values():
    A = dual_numbers_algebra()
    g = sign_twist(A)
    B0 = twisted_B(A, g, 0)
    # reduced bases: degree 0 is (1, x); degree 1 is ((1,x),(x,x))
    assert B0.column(0) == {}                  # B(1) dies in the reduced module
    assert B0.column(1) == {0: Q(1)}           # B(x) = (1, x)


def test_connes_identity_exact():
    """bB + Bb = 1 - T on the normalized modules, any twist order."""
    cases = [
        (dual_numbers_algebra(), sign_twist(dual_numbers_algebra())),
        (triple_lines_algebra(), shift_autom()),
    ]
    for A, g in cases:
        for n in range(3):
            T = twist_matrix(A, g, n, reduced=True)
            lhs = twisted_b(A, g, n + 1, reduced=True) @ twisted_B(A, g, n)
            if n >= 1:
                lhs = lhs + twisted_B(A, g, n - 1) @ twisted_b(A, g, n, reduced=True)
            assert lhs == QMatrix.identity(T.rows) - T, (A.basis_names, n)


def test_operator_squares_and_twist_commutation():
    A = triple_lines_algebra()
    g = shift_autom()
    for n in range(3):
        B = twisted_B(A, g, n)
        assert (twisted_B(A, g, n + 1) @ B).is_zero()
        b1 = twisted_b(A, g, n + 1, reduced=True)
        if n >= 1:
            assert (twisted_b(A, g, n, reduced=True) @ b1).is_zero()
        T = twist_matrix(A, g, n, reduced=True)
        T1 = twist_matrix(A, g, n + 1, reduced=True)
        assert (T1 @ B) == (B @ T)
        assert (T @ b1) == (b1 @ T1)


def test_twist_image_symmetry():
    """im(1 - T_g) = im(1 - T_{g^-1}) as column spans."""
    A = triple_lines_algebra()
    g = shift_autom()
    ginv = AlgebraMap(g.matrix @ g.matrix)
    from thl.sparse import rref

    for n in range(3):
        t = twist_matrix(A, g, n, reduced=True)
        ti = twist_matrix(A, ginv, n, reduced=True)
        r1 = coinvariant_relations(t.rows, [t])
        r2 = coinvariant_relations(t.rows, [ti])
        # canonical column-span form: reduced row echelon of the transpose
        assert rref(r1.transpose()) == rref(r2.transpose())


def test_hk_quotient_dims_fixture2():
    """(A (x) Abar)/(1 - T) for the sign twist is spanned by x (x) x."""
    A = dual_numbers_algebra()
    hk = HKBicomplex(TwistedOperators(A, sign_twist(A)), 3)
    assert hk.mixed.presentations[1].quotient_dim == 1
    # the surviving coordinate is the (x, x) tensor, index 1 in the reduced basis
    assert hk.mixed.presentations[1].free_rows == [1]


def test_hk_ground_field_modules():
    Aq = ground_field_algebra()
    hk = HKBicomplex(TwistedOperators(Aq, AlgebraMap.identity(1)), 3)
    assert [p.quotient_dim for p in hk.mixed.presentations] == [1, 0, 0, 0, 0]


def test_hochschild_ground_field():
    Aq = ground_field_algebra()
    assert twisted_hochschild(Aq, AlgebraMap.identity(1), 3).dims == [1, 0, 0, 0]


def test_hochschild_degree0_twisted():
    A = dual_numbers_algebra()
    assert twisted_hochschild(A, sign_twist(A), 3).dims[0] == 1


def test_hochschild_untwisted_dual_numbers():
    A = dual_numbers_algebra()
    assert twisted_hochschild(A, AlgebraMap.identity(2), 3).dims == [2, 1, 1, 1]


def test_cyclic_ground_field():
    Aq = ground_field_algebra()
    assert twisted_cyclic(Aq, AlgebraMap.identity(1), 4).dims == [1, 0, 1, 0, 1]


def test_cyclic_untwisted_dual_numbers_vs_oracles():
    A = dual_numbers_algebra()
    lib = twisted_cyclic(A, AlgebraMap.identity(2), 3).dims
    dense = _as_dense_algebra(A)
    gid = oracles.identity_mat(2)
    assert lib == oracles.hc_dims_bicomplex(dense, gid, 3)
    assert lib == oracles.hc_dims_lambda(dense, gid, 3)


def test_cyclic_twisted_dual_numbers_vs_oracles():
    A = dual_numbers_algebra()
    g = sign_twist(A)
    lib = twisted_cyclic(A, g, 3).dims
    dense = _as_dense_algebra(A)
    dg = _as_dense_map(g)
    assert lib == oracles.hc_dims_bicomplex(dense, dg, 3)
    assert lib == oracles.hc_dims_lambda(dense, dg, 3)
    assert twisted_hochschild(A, g, 3).dims == oracles.hochschild_dims(dense, dg, 3)


def test_cyclic_twisted_triple_lines_vs_oracles():
    A = triple_lines_algebra()
    g = shift_autom()
    lib = twisted_cyclic(A, g, 2).dims
    dense = _as_dense_algebra(A)
    dg = _as_dense_map(g)
    assert lib == oracles.hc_dims_lambda(dense, dg, 2)


def test_infinite_order_twist():
    """g(x) = 2x is an automorphism of infinite order; the pipeline runs."""
    A = dual_numbers_algebra()
    g = AlgebraMap(QMatrix.from_dense([[1, 0], [0, 2]]))
    h = twisted_cyclic(A, g, 3)
    dense = _as_dense_algebra(A)
    dg = _as_dense_map(g)
    assert h.dims == oracles.hc_dims_lambda(dense, dg, 3)


def test_cubic_twisted_vs_oracle():
    A = trunc_cubic_algebra()
    g = sign_twist(A)
    lib = twisted_cyclic(A, g, 2).dims
    dense = _as_dense_algebra(A)
    dg = _as_dense_map(g)
    assert lib == oracles.hc_dims_lambda(dense, dg, 2)


# -- the twisted Connes complex -------------------------------------------

HALF_LINES = os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json")


def _element_cases():
    """(config, element, max degree), one per element of every fixture and
    of half-lines-z2 at its default degree, and of trunc-poly-z2 at 4."""
    cases = []
    for cfg in [load_fixture(name) for name in fixture_names()] + [load_config(HALF_LINES)]:
        for elem in range(cfg.group.order):
            cases.append(pytest.param(cfg, elem, cfg.max_degree,
                                      id=f"{cfg.name}-{cfg.group.name(elem)}"))
    cfg = load_fixture("trunc-poly-z2")
    for elem in range(cfg.group.order):
        cases.append(pytest.param(cfg, elem, 4, id=f"{cfg.name}-{cfg.group.name(elem)}-N4"))
    return cases


@pytest.mark.parametrize("cfg, elem, max_degree", _element_cases())
def test_connes_complex_equals_total_complex(cfg, elem, max_degree):
    """Connes' theorem per twist: C/(1 - t) has the homology of the (b, B)
    total complex."""
    ops = TwistedOperators(cfg.algebra, cfg.group.action[elem])
    total = HKBicomplex(ops, max_degree).mixed.total_homology().dims
    assert connes_complex(ops, max_degree).column_homology().dims == total


def test_cyclic_operator_power_is_the_twist():
    """t^{n+1} = T on full slots, for every element of S3."""
    A = triple_lines_algebra()
    G = s3_group(A)
    for g in G.action:
        for n in range(4):
            t = cyclic_operator(A, g, n)
            power = t
            for _ in range(n):
                power = t @ power
            assert power == twist_matrix(A, g, n, reduced=False), n


def test_cyclic_operator_vs_oracle():
    cases = [
        (dual_numbers_algebra(), sign_twist(dual_numbers_algebra())),
        (dual_numbers_algebra(), AlgebraMap.identity(2)),
        (triple_lines_algebra(), shift_autom()),
        (trunc_cubic_algebra(), sign_twist(trunc_cubic_algebra())),
    ]
    for A, g in cases:
        dense, dg = _as_dense_algebra(A), _as_dense_map(g)
        for n in range(3):
            t = cyclic_operator(A, g, n)
            rows = [[t.entry(i, j) for j in range(t.cols)] for i in range(t.rows)]
            assert rows == oracles.cyclic_matrix(dense, dg, n), (A.basis_names, n)


def test_connes_complex_refuses_the_inverse_rotation():
    """b twisted by g does not descend to the quotient by the rotation
    twisted by g^{-1} (c123 on S3): the descent check names b_1."""
    A = triple_lines_algebra()
    G = s3_group(A)
    c = G.index_of("c123")
    g, ginv = G.action[c], G.action[G.inverse[c]]
    mismatched = SimpleNamespace(
        algebra=A, g=ginv, b=lambda n, reduced=True: twisted_b(A, g, n, reduced)
    )
    with pytest.raises(WellDefinednessError, match="b_1 of twisted Connes complex"):
        connes_complex(mismatched, 2)


# -- twist powers handed along ---------------------------------------------

MIRRORED_S3 = os.path.join(os.path.dirname(__file__), "data", "triple-lines-s3-mirrored.json")


def _twist_cases():
    """(algebra, twist) for t12 and c123 on triple-lines-s3 in both basis
    orders, and s on half-lines-z2 (an action with denominator 2)."""
    cases = []
    for cfg in (load_fixture("triple-lines-s3"), load_config(MIRRORED_S3)):
        for name in ("t12", "c123"):
            g = cfg.group.action[cfg.group.index_of(name)]
            cases.append(pytest.param(cfg.algebra, g, id=f"{cfg.name}-{name}"))
    cfg = load_config(HALF_LINES)
    cases.append(pytest.param(cfg.algebra, cfg.group.action[1], id="half-lines-z2-s"))
    return cases


@pytest.mark.parametrize("A, g", _twist_cases())
def test_handed_twist_powers_equal_twist_matrix(A, g):
    """Each degree built from the power held from the degree below is the
    Kronecker power twist_matrix builds from scratch, through q = 7, on
    reduced and on full slots; the instance then holds that one power."""
    for reduced in (True, False):
        ops = TwistedOperators(A, g)
        for q in range(8):
            T = ops.twist(q, reduced)
            assert T == twist_matrix(A, g, q, reduced=reduced), (reduced, q)
            assert ops._power == (q, reduced, T)


@pytest.mark.parametrize("A, g", _twist_cases())
def test_twist_powers_asked_out_of_order(A, g):
    """Degrees asked for in any order, and a power over the other slots,
    are built from scratch where nothing is handed along, and are still
    the Kronecker powers."""
    ops = TwistedOperators(A, g)
    for q, reduced in [(5, True), (3, True), (4, True), (5, False), (4, False), (5, True),
                       (6, True), (2, True)]:
        assert ops.twist(q, reduced) == twist_matrix(A, g, q, reduced=reduced), (q, reduced)
    ops.relations(3, last=True)
    assert ops._power is None


def test_bicomplex_holds_no_twist_power():
    """A twisted bicomplex hands each degree's power to the next and holds
    none once its top's relations are built, nor after its top is read."""
    cfg = load_config(MIRRORED_S3)
    ops = TwistedOperators(cfg.algebra, cfg.group.action[cfg.group.index_of("c123")])
    hk = HKBicomplex(ops, 4)
    assert ops._power is None
    hk.mixed.presentation(5)
    assert ops._power is None
    assert hk.mixed.total_homology().dims == [0, 0, 0, 0, 0]
