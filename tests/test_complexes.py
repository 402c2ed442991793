import pytest
from hypothesis import example, given, settings, strategies as st

from thl.algebra import Algebra, AlgebraMap
from thl.complexes import (
    ChainComplexQ,
    MixedComplex,
    check_chain_map,
    homology,
    induced_on_homology,
    quotient_mixed_complex,
    total_complex,
    total_map,
)
from thl.config import load_fixture
from thl.algebra import conjugacy_data
from thl.crossed import (
    CoinvariantComplex,
    GJOperators,
    LambdaComplex,
    PropositionComplex,
    stalk_complex,
)
from thl.errors import ChainMapError, ComplexError, WellDefinednessError
from thl.fixtures import fixture_names
from thl.rational import Q
from thl.sparse import QMatrix, block_matrix, kernel_basis, rank
from thl.quotient import descend_map, quotient_by
from thl.twisted import HKBicomplex, TwistedOperators, twisted_b

from oracles import two_step_frame


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


def _dense_total_matrix(blocks, row_dims, col_dims):
    """Dense rows of the matrix with block (i, j) = blocks[(i, j)], entry by
    entry; missing blocks are zero."""
    rows = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
    for (i, j), m in blocks.items():
        r0, c0 = sum(row_dims[:i]), sum(col_dims[:j])
        for c in range(m.cols):
            for r, v in m.column(c).items():
                rows[r0 + r][c0 + c] = v
    return rows


def _layout_mixed(case):
    """The twisted complex of a fixture's twist (the identity when it names
    none), or a crossed-product or Connes complex of trunc-poly-z2."""
    cfg = load_fixture("trunc-poly-z2" if case in ("proposition", "connes") else case)
    if case == "proposition":
        return PropositionComplex(GJOperators(cfg.algebra, cfg.group), 2).mixed
    if case == "connes":
        return LambdaComplex(GJOperators(cfg.algebra, cfg.group), 2).mixed
    g = cfg.group.action[cfg.twist_index() or 0]
    return HKBicomplex(TwistedOperators(cfg.algebra, g), 3).mixed


@pytest.mark.parametrize("case", [*fixture_names(), "proposition", "connes"])
def test_total_complex_layout(case):
    """Degree n of the total is C_n, C_{n-2}, ...: b[n-2j] at block (j, j),
    B[n-2j] at block (j-1, j) when there is a B; total_map is blockwise the
    same; and the blocks after C_n form degree n - 2."""
    mixed = _layout_mixed(case)
    top = mixed.top
    tot = total_complex(mixed, top)

    def dims(n):
        return [mixed.dims[n - 2 * j] for j in range(n // 2 + 1)]

    assert tot.dims == [sum(dims(n)) for n in range(top + 1)]
    for n in range(1, top + 1):
        blocks = {}
        for j in range(n // 2 + 1):
            if n - 2 * j >= 1:
                blocks[(j, j)] = mixed.b[n - 2 * j]
            if j >= 1 and mixed.B[n - 2 * j] is not None:
                blocks[(j - 1, j)] = mixed.B[n - 2 * j]
        dense = _dense_total_matrix(blocks, dims(n - 1), dims(n))
        assert tot.d[n] == QMatrix.from_dense(dense, tot.dims[n - 1], tot.dims[n]), n
    # C_n first, then degree n - 2: the blocks sbi_sequence includes and drops
    for n in range(2, top + 1):
        assert tot.dims[n] == mixed.dims[n] + tot.dims[n - 2]
        if n >= 3:
            tail = tot.d[n].select_columns(range(mixed.dims[n], tot.dims[n]))
            assert tail.shift_rows(-mixed.dims[n - 1], tot.dims[n - 3]) == tot.d[n - 2]
    # a map with rational entries and one more row than column in each degree
    f = [
        QMatrix.from_dense(
            [[Q(i + 2 * j - m, m + 2) for j in range(d)] for i in range(d + 1)], d + 1, d
        )
        for m, d in enumerate(mixed.dims)
    ]
    for n, fn in enumerate(total_map(f)):
        diag = {(j, j): f[n - 2 * j] for j in range(n // 2 + 1)}
        dense = _dense_total_matrix(diag, [d + 1 for d in dims(n)], dims(n))
        assert fn == QMatrix.from_dense(dense, sum(dims(n)) + n // 2 + 1, tot.dims[n])


def test_hk_total_of_ground_field():
    """Bicomplex route for A = Q, trivial twist; total homology (1,0,1,0,...)."""
    alg = Algebra(1, ["1"], {0: 1}, [[{0: 1}]])
    hk = HKBicomplex(TwistedOperators(alg, AlgebraMap.identity(1)), 4)
    h = hk.mixed.total_homology()
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


def test_mixed_complex_checks_degree_zero_identity():
    """b_1 B_0 = 0 is the degree-0 block of d.d on the total complex, which
    is built unchecked; here it fails while every other identity holds."""
    b = [None, QMatrix.from_dense([[1], [0]]), QMatrix.zero(1, 0)]
    B = [QMatrix.from_dense([[0, 1]]), QMatrix.zero(0, 1), None]
    with pytest.raises(ComplexError, match="degree 0"):
        MixedComplex([2, 1, 0], b, B)


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
        ).top_B()
    assert "B_0" in str(err.value)
    assert "toy theory" in str(err.value)


def test_quotient_mixed_complex_below_the_top_names_theory_and_degree():
    """The same B_0 with top = 2, where the total complex reads it: the
    construction refuses it."""
    rels = {0: QMatrix.from_dense([[1], [-1]]), 1: QMatrix.zero(1, 0), 2: QMatrix.zero(1, 0)}
    with pytest.raises(WellDefinednessError) as err:
        quotient_mixed_complex(
            2,
            lambda n: quotient_by(rels[n].rows, rels[n]),
            lambda n: QMatrix.from_dense([[1], [1]]) if n == 1 else QMatrix.zero(1, 1),
            lambda n: QMatrix.from_dense([[1, 0]]) if n == 0 else QMatrix.zero(1, 1),
            "toy theory",
        )
    assert "B_0" in str(err.value)
    assert "toy theory" in str(err.value)


def _pending_top_B_case(case):
    """(a builder of a quotient mixed complex, its raw B(n) on the undivided
    modules), all on trunc-poly-z2."""
    cfg = load_fixture("trunc-poly-z2")
    ops = GJOperators(cfg.algebra, cfg.group)
    tw = TwistedOperators(cfg.algebra, cfg.group.action[1])
    if case == "twisted":
        return lambda: HKBicomplex(tw, 3).mixed, tw.B
    if case == "proposition":
        def sizes(n):
            return [ops.basis(p, n - p).size for p in range(n + 1)]

        return lambda: PropositionComplex(ops, 2).mixed, lambda n: block_matrix(
            {(p, p): ops.B(p, n - p) for p in range(n + 1)}, sizes(n + 1), sizes(n))
    if case == "coinvariant":
        return lambda: CoinvariantComplex(ops, 2).mixed, lambda n: ops.B(0, n)
    if case == "stalk":
        conj = conjugacy_data(cfg.group)
        rep, cent = conj.representatives[1], conj.centralizers[1]
        sigma = cfg.group.inverse[rep]
        return lambda: stalk_complex(ops, rep, cent, 2), lambda n: ops.alg_B(sigma, n)
    return lambda: quotient_mixed_complex(2, tw.presentation, tw.b, tw.B, "bare"), tw.B


@pytest.mark.parametrize("case", ["twisted", "proposition", "coinvariant", "stalk", "bare"])
def test_top_B_is_descended_on_first_read(monkeypatch, case):
    """No homology reads B_{top-1}, so reading both homologies descends no
    B_{top-1}; top_B() descends it once, equal to a direct descent."""
    import thl.complexes

    build, raw_B = _pending_top_B_case(case)
    calls = []

    def spy(f, src, dst, what):
        calls.append(what)
        return descend_map(f, src, dst, what)

    monkeypatch.setattr(thl.complexes, "descend_map", spy)
    mixed = build()
    top = mixed.top
    mixed.total_homology()
    mixed.column_homology()
    assert f"B_{top - 2} of {mixed.label}" in calls
    assert not [w for w in calls if w.startswith(f"B_{top - 1} of ")]
    assert mixed.B[top - 1] is None
    pres = mixed.presentations
    direct = descend_map(raw_B(top - 1), pres[top - 1], pres[top])
    top_B = mixed.top_B()
    assert top_B == direct
    assert calls[-1] == f"B_{top - 1} of {mixed.label}"
    count = len(calls)
    assert mixed.top_B() is top_B and len(calls) == count


def test_unread_wrong_top_B_is_refused_on_first_read():
    """A wrong B_{top-1} (twice the right one) leaves the total homology
    alone, which does not read it; its first read fails bB + Bb = 0 at
    degree top - 1."""
    cfg = load_fixture("trunc-cubic-z2")
    tw = TwistedOperators(cfg.algebra, cfg.group.action[0])
    top = 3

    def wrong_B(n):
        return tw.B(n) + tw.B(n) if n == top - 1 else tw.B(n)

    broken = quotient_mixed_complex(top, tw.presentation, tw.b, wrong_B, "broken")
    assert broken.total_homology().dims == HKBicomplex(tw, top - 1).mixed.total_homology().dims
    with pytest.raises(ComplexError, match=r"^bB \+ Bb != 0 in broken") as err:
        broken.top_B()
    assert err.value.location == f"degree {top - 1}"


@pytest.mark.parametrize("identity, location, dims, b, B", [
    ("b.b != 0", "degree 2", [1, 1, 2],
     [None, QMatrix.identity(1), QMatrix.from_dense([[0, 1]])], [None] * 3),
    ("B.B != 0", "degree 0", [2, 1, 1],
     [None, QMatrix.zero(2, 1), QMatrix.zero(1, 1)],
     [QMatrix.from_dense([[0, 1]]), QMatrix.identity(1), None]),
    ("bB + Bb != 0", "degree 0", [2, 1],
     [None, QMatrix.from_dense([[1], [0]])], [QMatrix.from_dense([[0, 1]]), None]),
])
def test_mixed_identity_error_names_the_basis_index(identity, location, dims, b, B):
    """Each identity fails first on basis index 1; its error names the
    degree and that index."""
    with pytest.raises(ComplexError) as err:
        MixedComplex(dims, b, B)
    assert str(err.value).startswith(f"{identity} in mixed complex")
    assert err.value.location == location
    assert err.value.basis_label == "basis index 1"


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
    chain = hk.mixed.total_homology().complex
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


@pytest.mark.parametrize("fixture, element", [("trunc-poly-z2", 1), ("triple-lines-z3", 0)])
def test_total_complex_shares_b_and_leaves_it_unchanged(fixture, element):
    """d_n of the total complex holds b_n's column dicts (block_matrix shares
    a lone block at row offset 0); taking ranks, kernels, representatives
    and class coordinates of the total complex changes no b_n or B_n."""
    from thl.sparse import kernel_basis

    cfg = load_fixture(fixture)
    mixed = HKBicomplex(TwistedOperators(cfg.algebra, cfg.group.action[element]), 3).mixed

    def copy(m):
        return None if m is None else m.select_columns(range(m.cols))

    b, B = [copy(m) for m in mixed.b], [copy(m) for m in mixed.B]
    h = mixed.total_homology()
    shared = [n for n in range(1, h.complex.top + 1)
              if all(x is y for x, y in zip(h.complex.d[n]._cols, mixed.b[n]._cols))]
    assert shared
    for n in range(h.valid_through + 1):
        kernel_basis(h.complex.d[n + 1])
        reps, _ = h.representatives(n)
        h.class_coordinates(n, reps)
    assert mixed.b == b and mixed.B == B


def _integer_matrices(rows, cols):
    entries = st.sampled_from([0, 0, 0, 1, -1, 2])
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: QMatrix.from_dense(data, rows, cols))


@st.composite
def _exact_complexes(draw):
    """A complex with d_1 random and d_{n+1} = (kernel basis of d_n) times a
    random integer matrix, so d.d = 0; modules may be 0."""
    dims = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5))
    d = [None]
    for n in range(1, len(dims)):
        kb = kernel_basis(d[-1]) if n > 1 else QMatrix.identity(dims[0])
        d.append(kb @ draw(_integer_matrices(kb.cols, dims[n])))
    return ChainComplexQ(dims, d)


@settings(max_examples=80, deadline=None)
@given(_exact_complexes())
@example(ChainComplexQ([2], []))
@example(ChainComplexQ([1, 1], [None, QMatrix.identity(1)]))
@example(ChainComplexQ([2, 0, 3], [None, QMatrix.zero(2, 0), QMatrix.zero(0, 3)]))
def test_homology_frame_is_the_two_step_construction(chain):
    """boundary_basis(n) and representatives(n), read from one elimination
    of [d_{n+1} | cycles], equal the boundaries and representatives of two
    separate eliminations in every degree, the top one included (no
    d_{n+1}), also where the boundary or the cycle block is empty."""
    h = homology(chain)
    for n in range(chain.top + 1):
        bd, reps, frame = two_step_frame(h, n)
        assert h.boundary_basis(n) == bd
        assert h.representatives(n) == (reps, frame)
