import pytest

from thl.algebra import Algebra, AlgebraMap
from thl.complexes import (
    BicomplexSpec,
    ChainComplexQ,
    MixedComplex,
    check_chain_map,
    homology,
    induced_on_homology,
    quotient_mixed_complex,
    total_complex,
)
from thl.errors import ChainMapError, ComplexError, WellDefinednessError
from thl.rational import Q
from thl.sparse import QMatrix, rank
from thl.quotient import quotient_by
from thl.twisted import HKBicomplex, TwistedOperators, twisted_b


def test_complex_rejects_bad_differential():
    d1 = QMatrix.from_dense([[1]])
    d2 = QMatrix.from_dense([[1]])
    with pytest.raises(ComplexError):
        ChainComplexQ([1, 1, 1], [None, d1, d2])


def test_homology_zero_differentials():
    z = QMatrix.zero(1, 1)
    c = ChainComplexQ([1, 1, 1], [None, z, z])
    h = homology(c)
    assert h.valid_through == 1
    assert h.dims == [1, 1]


def test_homology_identity_differential():
    c = ChainComplexQ([1, 1], [None, QMatrix.identity(1)])
    h = homology(c)
    assert h.dims == [0]
    assert h.valid_through == 0


def test_hochschild_of_ground_field():
    """Brute-force matrices for the bar-type complex of Q: H_0 = 1, rest 0."""
    alg = Algebra(1, ["1"], {0: 1}, [[{0: 1}]])
    gid = AlgebraMap.identity(1)
    dims = [1] * 5
    diffs = [None] + [twisted_b(alg, gid, n) for n in range(1, 5)]
    h = homology(ChainComplexQ(dims, diffs))
    assert h.dims == [1, 0, 0, 0]


def test_total_complex_single_column():
    spec = BicomplexSpec(
        {(0, 0): 1, (0, 1): 1, (0, 2): 1},
        {},
        {(0, 1): QMatrix.zero(1, 1), (0, 2): QMatrix.zero(1, 1)},
    )
    tot = total_complex(spec, 2)
    assert tot.chain.dims == [1, 1, 1]
    assert homology(tot.chain).dims == [1, 1]


def test_total_complex_two_columns_zero_horizontal():
    """Zero horizontal maps give the degree-shifted direct sum of columns."""
    z = QMatrix.zero(1, 1)
    spec = BicomplexSpec(
        {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        {(1, 0): QMatrix.zero(1, 1), (1, 1): QMatrix.zero(1, 1)},
        {(0, 1): z, (1, 1): z},
    )
    tot = total_complex(spec, 2)
    assert tot.chain.dims == [1, 2, 1]
    assert tot.blocks[1] == [(0, 1, 0, 1), (1, 0, 1, 1)]


def test_total_complex_checks_dd():
    one = QMatrix.identity(1)
    spec = BicomplexSpec(
        {(0, 0): 1, (0, 1): 1, (0, 2): 1},
        {},
        {(0, 1): one, (0, 2): one},
    )
    with pytest.raises(ComplexError):
        total_complex(spec, 2)


def test_hk_total_of_ground_field():
    """Bicomplex route for A = Q, trivial twist; total homology (1,0,1,0,...)."""
    alg = Algebra(1, ["1"], {0: 1}, [[{0: 1}]])
    hk = HKBicomplex(TwistedOperators(alg, AlgebraMap.identity(1)), 4)
    h = homology(hk.total().chain)
    assert h.dims == [1, 0, 1, 0, 1]


def test_mixed_complex_homology_is_computed_once():
    """Repeated reads share one HomologyResult, so its ranks and bases."""
    alg = Algebra(1, ["1"], {0: 1}, [[{0: 1}]])
    mixed = HKBicomplex(TwistedOperators(alg, AlgebraMap.identity(1)), 3).mixed
    total = mixed.total_homology()
    column = mixed.column_homology()
    assert mixed.total_homology() is total
    assert mixed.column_homology() is column
    assert total is not column
    assert total.dims == [1, 0, 1, 0] and column.dims == [1, 0, 0, 0]


def test_mixed_complex_rejects_broken_identity():
    one = QMatrix.identity(1)
    with pytest.raises(ComplexError):
        # b = B = identity on a constant tower violates bB + Bb = 0
        MixedComplex([1, 1, 1], [None, one, one], [one, one, None])


def test_quotient_mixed_complex_names_theory_and_degree():
    """Q^2 / (e0 - e1) in degree 0, Q in degree 1; B_0 = (1, 0) moves the
    relation to a nonzero vector, so it does not descend."""
    rels = {0: QMatrix.from_dense([[1], [-1]]), 1: QMatrix.zero(1, 0)}
    with pytest.raises(WellDefinednessError) as err:
        quotient_mixed_complex(
            1,
            lambda n: quotient_by(rels[n].rows, rels[n]),
            lambda n: QMatrix.from_dense([[1], [1]]),
            lambda n: QMatrix.from_dense([[1, 0]]),
            "toy theory",
        )
    assert "B_0" in str(err.value)
    assert "toy theory" in str(err.value)


def _two_step_complex():
    d1 = QMatrix.from_dense([[0, 0]])
    d2 = QMatrix.from_dense([[1], [0]])
    return ChainComplexQ([1, 2, 1], [None, d1, d2])


def test_induced_identity_map():
    c = _two_step_complex()
    h = homology(c)
    ident = [QMatrix.identity(d) for d in c.dims]
    out = induced_on_homology(ident, h, h)
    for n in range(h.valid_through + 1):
        assert out[n] == QMatrix.identity(h.dims[n])


def test_induced_homotopy_trivial_map():
    """f = d.h + h.d induces zero on homology."""
    c = _two_step_complex()
    h = homology(c)
    # homotopy h_n: C_n -> C_{n+1}
    h0 = QMatrix.from_dense([[2], [3]])   # C_0 -> C_1
    h1 = QMatrix.from_dense([[5, 7]])     # C_1 -> C_2
    f0 = c.d[1] @ h0
    f1 = h0 @ c.d[1] + c.d[2] @ h1
    f2 = h1 @ c.d[2]
    out = induced_on_homology([f0, f1, f2], h, h)
    for n in range(h.valid_through + 1):
        assert out[n].is_zero()


def test_induced_rejects_non_chain_map():
    c = _two_step_complex()
    h = homology(c)
    bad = [QMatrix.identity(1), QMatrix.zero(2, 2), QMatrix.identity(1)]
    with pytest.raises(ChainMapError):
        induced_on_homology(bad, h, h)


def test_homology_dims_invariant_under_basis_permutation():
    """Conjugating all differentials by permutations leaves dims alone."""
    alg = Algebra(2, ["1", "x"], {0: 1}, [[{0: 1}, {1: 1}], [{1: 1}, {}]])
    g = AlgebraMap(QMatrix.from_dense([[1, 0], [0, -1]]))
    hk = HKBicomplex(TwistedOperators(alg, g), 3)
    chain = hk.total().chain
    base = homology(chain).dims

    def perm_matrix(n, shift):
        return QMatrix(n, n, [{(j + shift) % n: Q(1)} for j in range(n)])

    perms = [perm_matrix(d, 1 if d > 1 else 0) for d in chain.dims]
    inv = [p.transpose() for p in perms]
    diffs = [None] + [
        perms[n - 1] @ chain.d[n] @ inv[n] for n in range(1, chain.top + 1)
    ]
    permuted = ChainComplexQ(chain.dims, diffs)
    assert homology(permuted).dims == base
