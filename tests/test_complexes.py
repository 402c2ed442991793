import gc
import weakref
from types import SimpleNamespace

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
from thl.sparse import QMatrix, kernel_basis, rank
from thl.quotient import descend_map, quotient_by
from thl.twisted import HKBicomplex, TwistedOperators, connes_complex, twisted_b

from fixtures_for_tests import s3_group, triple_lines_algebra
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
    tot = total_complex(mixed)

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
            lambda n: rels[n],
            lambda n: QMatrix.from_dense([[1], [1]]),
            lambda n: QMatrix.from_dense([[1, 0]]),
            "toy theory",
        ).B
    assert "B_0" in str(err.value)
    assert "toy theory" in str(err.value)


def test_quotient_mixed_complex_below_the_top_names_theory_and_degree():
    """The same B_0 with top = 2, where the total complex reads it: the
    construction refuses it."""
    rels = {0: QMatrix.from_dense([[1], [-1]]), 1: QMatrix.zero(1, 0), 2: QMatrix.zero(1, 0)}
    with pytest.raises(WellDefinednessError) as err:
        quotient_mixed_complex(
            2,
            lambda n: rels[n],
            lambda n: QMatrix.from_dense([[1], [1]]) if n == 1 else QMatrix.zero(1, 1),
            lambda n: QMatrix.from_dense([[1, 0]]) if n == 0 else QMatrix.zero(1, 1),
            "toy theory",
        )
    assert "B_0" in str(err.value)
    assert "toy theory" in str(err.value)


def _pending_top_case(case):
    """(a builder of a quotient mixed complex, its raw b(n) and B(n) on the
    undivided modules, B None for a Connes complex), all on trunc-poly-z2."""
    cfg = load_fixture("trunc-poly-z2")
    ops = GJOperators(cfg.algebra, cfg.group)
    tw = TwistedOperators(cfg.algebra, cfg.group.action[1])
    if case == "twisted":
        return lambda: HKBicomplex(tw, 3).mixed, tw.b, tw.B
    if case == "coinvariant":
        return (lambda: CoinvariantComplex(ops, 2).mixed, lambda n: ops.b(0, n),
                lambda n: ops.B(0, n))
    if case == "stalk":
        conj = conjugacy_data(cfg.group)
        rep, cent = conj.representatives[1], conj.centralizers[1]
        sigma = cfg.group.inverse[rep]
        return (lambda: stalk_complex(ops, rep, cent, 2), lambda n: ops.alg_b(sigma, n),
                lambda n: ops.alg_B(sigma, n))
    if case == "connes":
        return lambda: connes_complex(tw, 2), lambda n: tw.b(n, reduced=False), None
    if case == "lambda":
        return lambda: LambdaComplex(ops, 2).mixed, lambda n: ops.b(0, n, reduced=False), None
    return lambda: quotient_mixed_complex(2, tw.relations, tw.b, tw.B, "bare"), tw.b, tw.B


@pytest.mark.parametrize("case", ["twisted", "coinvariant", "stalk", "bare"])
def test_last_B_is_descended_on_first_read_of_the_top(monkeypatch, case):
    """No homology reads B_{top-1}, so reading both homologies descends no
    B_{top-1}; the first read of the top (here its presentations) descends
    it once, equal to a direct descent, and no later read descends it
    again."""
    import thl.complexes

    build, _, raw_B = _pending_top_case(case)
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
    pres = mixed.presentations
    last = [w for w in calls if w.startswith(f"B_{top - 1} of ")]
    assert last == [f"B_{top - 1} of {mixed.label}"]
    last_B = mixed.B[top - 1]
    assert last_B == descend_map(raw_B(top - 1), pres[top - 1], pres[top])
    count = len(calls)
    mixed.b, mixed.dims, mixed.total_homology().complex.d
    assert mixed.B[top - 1] is last_B and len(calls) == count


def test_unread_wrong_last_B_is_refused_on_first_read_of_the_top():
    """A wrong B_{top-1} (twice the right one) leaves the total homology
    alone, which does not read it; the first read of the top (here b) fails
    bB + Bb = 0 at degree top - 1."""
    cfg = load_fixture("trunc-cubic-z2")
    tw = TwistedOperators(cfg.algebra, cfg.group.action[0])
    top = 3

    def wrong_B(n):
        return tw.B(n) + tw.B(n) if n == top - 1 else tw.B(n)

    broken = quotient_mixed_complex(top, tw.relations, tw.b, wrong_B, "broken")
    assert broken.total_homology().dims == HKBicomplex(tw, top - 1).mixed.total_homology().dims
    with pytest.raises(ComplexError, match=r"^bB \+ Bb != 0 in broken") as err:
        broken.b
    assert err.value.location == f"degree {top - 1}"


@pytest.mark.parametrize("present", [False, True], ids=["pending", "presented"])
@pytest.mark.parametrize("case", ["twisted", "coinvariant", "stalk", "bare"])
def test_no_reference_cycle_holds_a_mixed_complex(case, present):
    """Nothing a quotient mixed complex holds refers back to it, its top
    pending or presented: with the cyclic garbage collector off, the
    complex dies as soon as its last name is deleted, after both homologies
    are read and (presented) after B presents the top.  A pending step or
    total complex holding the complex would keep it alive."""
    build = _pending_top_case(case)[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        mixed = build()
        mixed.total_homology()
        mixed.column_homology()
        if present:
            mixed.B
        ref = weakref.ref(mixed)
        del mixed
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def presented(monkeypatch):
    """The (label, degree) of every presentation the quotient mixed
    complexes of the library build, in order."""
    import thl.crossed
    import thl.sequences
    import thl.twisted

    log = []

    def spied(top, relations, b, B, label, presentation=None):
        def spy(n):
            log.append((label, n))
            if presentation is not None:
                return presentation(n)
            rels = relations(n)
            return quotient_by(rels.rows, rels)

        return quotient_mixed_complex(top, relations, b, B, label, spy)

    for module in (thl.twisted, thl.crossed, thl.sequences):
        monkeypatch.setattr(module, "quotient_mixed_complex", spied)
    return log


PENDING_CASES = ["twisted", "coinvariant", "stalk", "connes", "lambda", "bare"]


@pytest.mark.parametrize("read", ["presentations", "dims", "b"])
@pytest.mark.parametrize("case", PENDING_CASES)
def test_top_is_presented_on_first_read(presented, case, read):
    """Both homologies present every degree but the top; the first read of
    presentations, dims or b presents it once, with b_top equal to a direct
    descent, and the homologies' rank of d_top is that of the presented
    complexes (a bare complex is built here, outside the spy)."""
    build, raw_b, _ = _pending_top_case(case)
    mixed = build()
    top = mixed.top
    total, column = mixed.total_homology(), mixed.column_homology()
    if case != "bare":
        assert [n for label, n in presented if label == mixed.label] == list(range(top))
    getattr(mixed, read)
    pres = mixed.presentations
    assert mixed.b[top] == descend_map(raw_b(top), pres[top], pres[top - 1])
    assert mixed.dims[top] == pres[top].quotient_dim
    if case != "bare":
        assert [n for label, n in presented if label == mixed.label] == list(range(top + 1))
    assert total.ranks[top] == rank(total.complex.d[top])
    assert column.ranks[top] == rank(mixed.b[top])
    assert total_complex(mixed).d[top] == total.complex.d[top]


def test_karoubi_sequence_presents_no_connes_top(presented):
    """The Karoubi sequence reads the group-indexed Connes complex and its
    unit-reduced quotient below the top only, so it presents neither top."""
    from thl.crossed import CoinvariantComplex
    from thl.sequences import DeRhamComplex, karoubi_sequence

    cfg = load_fixture("trunc-poly-z2")
    ops = GJOperators(cfg.algebra, cfg.group)
    lam = LambdaComplex(ops, 2)
    karoubi_sequence(DeRhamComplex(CoinvariantComplex(ops, 2)), lam)
    tops = {label for label, n in presented if n == 3}
    assert tops == {"coinvariant bicomplex"}


def test_top_that_does_not_descend_is_refused_at_construction():
    """b twisted by g^{-1} at the top only, on the Connes complex of c123 on
    S3: the construction fails on the relation generators of the top,
    naming b_top, before any homology is read."""
    A = triple_lines_algebra()
    G = s3_group(A)
    c = G.index_of("c123")
    g, ginv = G.action[c], G.action[G.inverse[c]]
    top = 3
    ops = SimpleNamespace(
        algebra=A, g=g,
        b=lambda n, reduced=True: twisted_b(A, ginv if n == top else g, n, reduced),
    )
    with pytest.raises(WellDefinednessError, match=f"^b_{top} of twisted Connes complex") as err:
        connes_complex(ops, top - 1)
    assert err.value.location.startswith("relation column ")
    # below the top the same b descends
    assert connes_complex(ops, top - 2).column_homology().dims == [0, 0]


def test_crossed_product_top_that_does_not_descend_is_refused_at_construction():
    """bbar with the identity in place of the wrap twist on total degree 4,
    on S3: the quotient bicomplex through degree 4 fails on the relation
    basis of the stalk that a move lands in, naming b_4; through degree 3
    it reads no such block.  Below degree 4 the full-pair check reads
    bbar(p + 1, q) and fails first."""
    A = triple_lines_algebra()
    G = s3_group(A)

    class UntwistedWrap(GJOperators):
        def moves(self, name, p, q):
            out = super().moves(name, p, q)
            if name == "bbar" and p + q == 4:
                *inner, (c, targets, _) = out    # the wrap move is the last
                return inner + [(c, targets, G.identity_index)]
            return out

    with pytest.raises(
        WellDefinednessError, match="^b_4 of crossed-product quotient bicomplex"
    ) as err:
        PropositionComplex(UntwistedWrap(A, G), 3)
    assert err.value.location.startswith("relation column ")
    assert PropositionComplex(UntwistedWrap(A, G), 2).mixed.total_homology().dims == [2, 0, 2]


def test_crossed_product_degenerate_tuples_must_stay_closed():
    """The last inner move of bbar with its sign flipped on total degree 4,
    on S3: from a degenerate tuple (g_0, ..., g_{p-1}, e) it no longer
    cancels the wrap move, so the degenerate tuples do not span a
    subcomplex and the normalized quotient is not defined.  The closure
    check refuses it at construction, naming b_4 and the tuple, before any
    block of degree 4 is placed; through degree 3 the flip is not read."""
    A = triple_lines_algebra()
    G = s3_group(A)

    class FlippedMove(GJOperators):
        def moves(self, name, p, q):
            out = super().moves(name, p, q)
            if name == "bbar" and p + q == 4:
                c, targets, twists = out[p - 1]
                out[p - 1] = (-c, targets, twists)
            return out

    with pytest.raises(
        WellDefinednessError,
        match="^b_4 of crossed-product quotient bicomplex .* degenerate group tuples",
    ) as err:
        PropositionComplex(FlippedMove(A, G), 3)
    assert err.value.location.startswith("(p,q)=(1,3), group tuple ")
    assert PropositionComplex(FlippedMove(A, G), 2).mixed.total_homology().dims == [2, 0, 2]


def test_top_b_squared_is_checked_at_construction():
    """b_1 b_2 != 0 with b_2 at the top of an undivided complex: refused at
    construction, at degree 2."""
    one = QMatrix.identity(1)
    with pytest.raises(ComplexError, match=r"^b\.b != 0 in toy") as err:
        quotient_mixed_complex(2, lambda n: QMatrix.zero(1, 0), lambda n: one, None, "toy")
    assert err.value.location == "degree 2"


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
    assert str(err.value) == (
        f"{identity} in mixed complex [at {location}] [offending basis tensor basis index 1]"
    )
    assert err.value.location == location
    assert err.value.basis_label == "basis index 1"


@pytest.mark.parametrize("b, B, location", [
    ([None, 1, 0], [1, 0], "degree 0"),     # at construction: b_1 B_0 = 1
    ([None, 0, 1], [0, 1], "degree 1"),     # on the first read of the top: b_2 B_1 = 1
])
def test_quotient_bB_Bb_error_says_the_twist_was_not_killed(b, B, location):
    """A quotient complex's bB + Bb error, at construction or on the first
    read of its top, adds that the quotient did not kill the twist."""
    def entry(v):
        return QMatrix.from_dense([[v]])

    no_relations = QMatrix.zero(1, 0)
    with pytest.raises(ComplexError) as err:
        quotient_mixed_complex(
            2, lambda n: no_relations, lambda n: entry(b[n]), lambda n: entry(B[n]), "toy"
        ).b
    assert str(err.value) == (
        f"bB + Bb != 0 in toy (quotient did not kill the twist) [at {location}] "
        "[offending basis tensor basis index 0]"
    )


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
