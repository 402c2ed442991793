import pytest

from thl.algebra import AlgebraMap, crossed_product, trivial_group
from thl.complexes import homology
from thl.crossed import (
    CoinvariantComplex,
    GJOperators,
    LambdaComplex,
    beta_map,
    coinvariant_bicomplex,
    conjugacy_decomposition,
    connes_lambda_complex,
    full_pair_check,
    hcG_bicomplex,
    identity_suite,
    proposition_bicomplex,
    theorem_map_f,
)
from thl.rational import Q
from thl.sparse import QMatrix, rank
from thl.twisted import HKBicomplex, TwistedOperators, connes_complex, twisted_cyclic

from fixtures_for_tests import (
    dual_numbers_algebra,
    ground_field_algebra,
    s3_group,
    sign_twist,
    theorem_map,
    triple_lines_algebra,
    z2_group,
    z3_group,
)


# -- raw operators ------------------------------------------------------

def test_bbar_zero_at_p0():
    A = dual_numbers_algebra()
    ops = GJOperators(A, z2_group(A))
    assert ops.bbar(0, 1).rows == 0


def test_bbar_identity_element_collapses():
    """bbar(g0, e | a) = (g0 | a) - (e g0 | a) = 0 when the merge and the
    rotation produce the same tuple with opposite signs."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    m = ops.bbar(1, 0)
    basis = ops.basis(1, 0)
    for a in range(basis.asize):
        col = m.column(basis.encode_group((1, 0)) * basis.asize + a)
        # (s, e | a): merge -> (s | a); rotate -> (e s = s | e(a)) with sign -1
        assert col == {}


def test_bbar_hand_value_z2():
    """bbar(s, s | a) = (e | a) - (e | s(a)) at q = 0."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    m = ops.bbar(1, 0)
    basis = ops.basis(1, 0)
    dst = ops.basis(0, 0)
    src_x = basis.encode_group((1, 1)) * basis.asize + 1   # (s,s | x)
    col = m.column(src_x)
    # s(x) = -x: (e | x) - (e | -x) = 2 (e | x)
    assert col == {dst.encode_group((0,)) * dst.asize + 1: Q(2)}


def test_Bbar_p0_inserts_identity():
    """Bbar(g0 | a) = (e, g0 | a): a single untwisted term."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    m = ops.Bbar(0, 0)
    basis = ops.basis(0, 0)
    dst = ops.basis(1, 0)
    for g0 in range(2):
        for a in range(2):
            col = m.column(basis.encode_group((g0,)) * basis.asize + a)
            assert col == {dst.encode_group((0, g0)) * dst.asize + a: Q(1)}


def test_bbar_after_Bbar_identity_tuple():
    """bbar(Bbar(e | a)) = (e | a) - (e | a) = 0 at p = 0, q = 0."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    comp = ops.bbar(1, 0) @ ops.Bbar(0, 0)
    basis = ops.basis(0, 0)
    col = comp.column(basis.encode_group((0,)) * basis.asize + 1)
    assert col == {}


def test_gj_T_values():
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    t = ops.T(0, 1)
    basis = ops.basis(0, 1)
    # stalk of e: identity
    idx = basis.encode_group((0,)) * basis.asize + basis.encode_algebra((0, 1))
    assert t.column(idx) == {idx: Q(1)}
    # stalk of s: T(s | 1 (x) x) = -(s | 1 (x) x)  (order-2 element)
    idx = basis.encode_group((1,)) * basis.asize + basis.encode_algebra((0, 1))
    assert t.column(idx) == {idx: Q(-1)}


def test_gj_T_invertible():
    A = triple_lines_algebra()
    G = z3_group(A)
    ops = GJOperators(A, G)
    for (p, q) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        t = ops.T(p, q)
        assert rank(t) == t.rows


def test_gj_b_block_diagonal_and_hand_value():
    """b(s | 1 (x) x) = (s | 2x) in the stalk of s (twist by s)."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    b = ops.b(0, 1)
    basis = ops.basis(0, 1)
    dst = ops.basis(0, 0)
    src = basis.encode_group((1,)) * basis.asize + basis.encode_algebra((0, 1))
    assert b.column(src) == {dst.encode_group((1,)) * dst.asize + 1: Q(2)}
    # blocks never mix stalks
    for j in range(basis.size):
        g_src = j // basis.asize
        for r in b.column(j):
            assert r // dst.asize == g_src


def test_beta_is_permutation():
    A = dual_numbers_algebra()
    G = z2_group(A)
    for (p, q) in [(1, 0), (1, 1), (2, 0)]:
        bm = beta_map(A, G, p, q)
        assert rank(bm) == bm.rows == bm.cols
        assert all(len(c) == 1 for c in bm._cols)


def test_beta_hand_values():
    A = dual_numbers_algebra()
    G = z2_group(A)
    bm = beta_map(A, G, 1, 0)
    from thl.algebra import tensor_index

    basis = tensor_index(G, A, 1, 0, reduced=False)
    # beta(s, s | a) = (s | e | a): product g = s s = e moves to the last slot
    src = basis.encode_group((1, 1)) * basis.asize + 0
    (tgt,) = bm.column(src)
    assert basis.decode(tgt)[0] == (1, 0)
    # beta(g0, g1 | a) = (g1 | g0 g1 | a)
    src = basis.encode_group((0, 1)) * basis.asize + 1
    (tgt,) = bm.column(src)
    assert basis.decode(tgt) == ((1, 1), (1,))


# -- identity suites ----------------------------------------------------

@pytest.mark.parametrize("make_alg,make_grp", [
    (dual_numbers_algebra, z2_group),
    (triple_lines_algebra, z3_group),
])
def test_identity_suite_passes(make_alg, make_grp):
    A = make_alg()
    suite = identity_suite(GJOperators(A, make_grp(A)), 2)
    assert all(ok for _, ok, _ in suite), suite


def test_full_pair_check_passes():
    A = dual_numbers_algebra()
    assert all(ok for _, ok in full_pair_check(GJOperators(A, z2_group(A)), 2))


# -- quotient pipelines -------------------------------------------------

def test_proposition_trivial_group_is_plain_cyclic():
    A = dual_numbers_algebra()
    h = proposition_bicomplex(A, trivial_group(A), 3)
    assert h.dims == twisted_cyclic(A, AlgebraMap.identity(2), 3).dims


def test_proposition_equals_oracle_fixture2():
    A = dual_numbers_algebra()
    G = z2_group(A)
    h = proposition_bicomplex(A, G, 3)
    AG = crossed_product(A, G)
    oracle = twisted_cyclic(AG, AlgebraMap.identity(AG.dim), 3)
    assert h.dims == oracle.dims == [2, 1, 2, 1]


def test_coinvariant_equals_proposition_fixture2():
    A = dual_numbers_algebra()
    G = z2_group(A)
    assert coinvariant_bicomplex(A, G, 3).dims == [2, 1, 2, 1]


def test_hcG_is_stalk_sum_fixture2():
    A = dual_numbers_algebra()
    G = z2_group(A)
    h = hcG_bicomplex(A, G, 3)
    tw_e = twisted_cyclic(A, AlgebraMap.identity(2), 3).dims
    tw_s = twisted_cyclic(A, sign_twist(A), 3).dims
    assert h.dims == [a + b for a, b in zip(tw_e, tw_s)]


def test_hcG_trivial_group():
    A = dual_numbers_algebra()
    h = hcG_bicomplex(A, trivial_group(A), 3)
    assert h.dims == twisted_cyclic(A, AlgebraMap.identity(2), 3).dims


def test_coinvariant_trivial_group():
    A = dual_numbers_algebra()
    h = coinvariant_bicomplex(A, trivial_group(A), 3)
    assert h.dims == twisted_cyclic(A, AlgebraMap.identity(2), 3).dims


def test_proposition_equals_oracle_cubic():
    """Crossed-product routes agree on the longer truncation too."""
    from thl.config import load_fixture

    cfg = load_fixture("trunc-cubic-z2")
    A, G = cfg.algebra, cfg.group
    prop = proposition_bicomplex(A, G, 2)
    coinv = coinvariant_bicomplex(A, G, 2)
    AG = crossed_product(A, G)
    oracle = twisted_cyclic(AG, AlgebraMap.identity(AG.dim), 2)
    lam = connes_lambda_complex(A, G, 2)
    assert prop.dims == coinv.dims == oracle.dims == lam.dims


def test_decomposition_trivial_group_single_stalk():
    A = dual_numbers_algebra()
    deco = conjugacy_decomposition(A, trivial_group(A), 3)
    stalks = [st.total_homology() for st in deco.stalks]
    assert len(stalks) == 1
    assert stalks[0].dims == twisted_cyclic(A, AlgebraMap.identity(2), 3).dims


def test_ground_field_rejects_nontrivial_twist():
    """Q has no automorphism other than the identity."""
    from thl.algebra import Algebra, validate_automorphism
    from thl.errors import ActionError

    Aq = ground_field_algebra()
    doubler = AlgebraMap(QMatrix.from_dense([[2]]))
    with pytest.raises(ActionError):
        validate_automorphism(Aq, doubler)


def _upper_triangular_algebra():
    """2x2 upper-triangular matrices, rebased to (1, e12, e22): the
    smallest noncommutative unital algebra over Q."""
    from thl.algebra import Algebra, validate_algebra

    A = Algebra(
        3,
        ["1", "e12", "e22"],
        {0: 1},
        [
            [{0: 1}, {1: 1}, {2: 1}],
            [{1: 1}, {}, {1: 1}],
            [{2: 1}, {}, {2: 1}],
        ],
    )
    validate_algebra(A)
    return A


def _diag_sign_involution():
    """Conjugation by diag(1, -1): e12 -> -e12, an order-2 automorphism."""
    return AlgebraMap(QMatrix.from_dense([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))


def test_noncommutative_base_pipelines_agree():
    """Quotient, coinvariant, and crossed-product routes agree on a
    noncommutative base algebra with an inner involution."""
    from thl.algebra import FiniteGroupAction, validate_action

    A = _upper_triangular_algebra()
    g = _diag_sign_involution()
    G = FiniteGroupAction(["e", "s"], [[0, 1], [1, 0]], [AlgebraMap.identity(3), g])
    validate_action(A, G)
    prop = proposition_bicomplex(A, G, 2)
    coinv = coinvariant_bicomplex(A, G, 2)
    AG = crossed_product(A, G)
    oracle = twisted_cyclic(AG, AlgebraMap.identity(AG.dim), 2)
    lam = connes_lambda_complex(A, G, 2)
    assert prop.dims == coinv.dims == oracle.dims == lam.dims
    # triangular algebras have the cyclic theory of their diagonal
    assert twisted_cyclic(A, AlgebraMap.identity(3), 2).dims == [2, 0, 2]


def test_noncommutative_identity_suite():
    from thl.algebra import FiniteGroupAction

    A = _upper_triangular_algebra()
    G = FiniteGroupAction(
        ["e", "s"], [[0, 1], [1, 0]], [AlgebraMap.identity(3), _diag_sign_involution()]
    )
    suite = identity_suite(GJOperators(A, G), 2)
    assert all(ok for _, ok, _ in suite), [s for s in suite if not s[1]]


def test_wrong_twist_direction_is_caught(monkeypatch):
    """Negative control: twisting the stalk operators by the tuple product
    instead of its inverse leaves every per-block identity intact (the
    suite checks each stalk against its own twist), but the full boundary
    pair stops anticommuting and the quotient construction aborts."""
    from thl.errors import ComplexError

    A = triple_lines_algebra()
    G = z3_group(A)
    monkeypatch.setattr(
        GJOperators, "_sigma", lambda self, gtuple: self.group.product(gtuple)
    )
    suite = identity_suite(GJOperators(A, G), 2)
    assert all(ok for _, ok, _ in suite)
    with pytest.raises(ComplexError):
        proposition_bicomplex(A, G, 2)


def test_wrong_twist_direction_breaks_class_splitting(monkeypatch):
    """The conjugation splitting of the coinvariant complex intertwines
    the stalk operators only for the inverse twist."""
    from thl.errors import ChainMapError

    A = triple_lines_algebra()
    G = z3_group(A)
    monkeypatch.setattr(
        GJOperators, "_sigma", lambda self, gtuple: self.group.product(gtuple)
    )
    with pytest.raises(ChainMapError):
        theorem_map(A, G, 1, 2)


@pytest.mark.parametrize("label, n, corner, message", [
    ("theorem map", 2, "first", "theorem map fails b at degree 2"),
    ("theorem map", 1, "last", "theorem map fails B at degree 1"),
    ("class splitting", 1, "first", "class splitting fails b at degree 2"),
    ("class splitting", 3, "last", "class splitting fails B at degree 3"),
    # caught only by reading the top B, B_3 at N = 3
    ("class splitting", 4, "last", "class splitting fails B at degree 3"),
    ("theorem map", 3, "last", "theorem map fails B at degree 3"),
])
def test_one_wrong_entry_names_the_operator_and_degree(monkeypatch, label, n, corner, message):
    """One entry of a descended map off by one: the chain-map check of
    b and B names the map, the operator and the first failing degree."""
    import thl.crossed
    from thl.config import load_fixture
    from thl.crossed import ConjugacyDecomposition
    from thl.errors import ChainMapError

    descend = thl.crossed.descend_map

    def off_by_one(f, src, dst, what):
        out = descend(f, src, dst, what)
        if what != f"{label} at degree {n}":
            return out
        i, j = (0, 0) if corner == "first" else (out.rows - 1, out.cols - 1)
        return out + QMatrix.from_columns(out.rows, [{i: 1} if k == j else {}
                                                     for k in range(out.cols)])

    monkeypatch.setattr(thl.crossed, "descend_map", off_by_one)
    cfg = load_fixture("trunc-poly-z2")
    ops = GJOperators(cfg.algebra, cfg.group)
    with pytest.raises(ChainMapError) as err:
        deco = ConjugacyDecomposition(CoinvariantComplex(ops, cfg.max_degree))
        theorem_map_f(HKBicomplex(ops.element(1), cfg.max_degree), deco, 1)
    assert str(err.value) == message


def test_gj_identity_stalk_is_untwisted():
    """The block over the identity tuple carries the untwisted operators."""
    from thl.twisted import twisted_b

    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = GJOperators(A, G)
    b = ops.b(0, 1)
    basis = ops.basis(0, 1)
    dst = ops.basis(0, 0)
    plain = twisted_b(A, AlgebraMap.identity(2), 1, reduced=True)
    for a in range(basis.asize):
        col = b.column(basis.encode_group((0,)) * basis.asize + a)
        shifted = {r - dst.encode_group((0,)) * dst.asize: v for r, v in col.items()}
        assert shifted == plain.column(a)


# -- conjugacy decomposition and the comparison map ----------------------

def test_stalk_decomposition_fixture2():
    A = dual_numbers_algebra()
    deco = conjugacy_decomposition(A, z2_group(A), 3)
    stalks = [st.total_homology().dims for st in deco.stalks]
    coinv = deco.coinv.mixed.total_homology().dims
    assert stalks == [[1, 0, 1, 0], [1, 1, 1, 1]]
    assert coinv == [sum(col) for col in zip(*stalks)]


def test_stalk_decomposition_s3():
    A = triple_lines_algebra()
    deco = conjugacy_decomposition(A, s3_group(A), 2)
    stalks = [st.total_homology().dims for st in deco.stalks]
    coinv = deco.coinv.mixed.total_homology().dims
    assert len(stalks) == 3
    assert coinv == [sum(col) for col in zip(*stalks)]
    # two split matrix blocks: identity and transposition classes carry
    # one periodicity tower each, the 3-cycle class carries nothing
    assert sorted(map(tuple, stalks)) == [(0, 0, 0), (1, 0, 1), (1, 0, 1)]


def test_proposition_equals_coinvariant_s3():
    """Non-abelian cross-pipeline agreement."""
    A = triple_lines_algebra()
    G = s3_group(A)
    prop = proposition_bicomplex(A, G, 2)
    assert prop.dims == coinvariant_bicomplex(A, G, 2).dims == [2, 0, 2]


def test_stalk_over_generator_is_twisted_theory():
    """For cyclic G the stalk of the generator is the twisted complex."""
    A = dual_numbers_algebra()
    deco = conjugacy_decomposition(A, z2_group(A), 3)
    s_stalk = deco.stalks[1].total_homology().dims
    assert s_stalk == twisted_cyclic(A, sign_twist(A), 3).dims


def test_theorem_map_trivial_group_iso():
    A = dual_numbers_algebra()
    rep = theorem_map(A, trivial_group(A), 0, 3)
    for d in rep:
        assert d["injective"] and d["onto_summand"]
        assert d["dim_source"] == d["dim_target"]


def test_theorem_map_fixture2():
    A = dual_numbers_algebra()
    rep = theorem_map(A, z2_group(A), 1, 3)
    assert all(d["injective"] for d in rep)
    assert all(d["onto_summand"] for d in rep)
    for d in rep:
        assert d["rank"] == d["dim_source"] == 1


def test_theorem_map_rejects_mismatched_twisted_complex():
    """The twisted complex must be that of g, at the decomposition's degree."""
    A = dual_numbers_algebra()
    G = z2_group(A)
    deco = conjugacy_decomposition(A, G, 2)
    with pytest.raises(ValueError):
        theorem_map_f(HKBicomplex(TwistedOperators(A, G.action[0]), 2), deco, 1)
    with pytest.raises(ValueError):
        theorem_map_f(HKBicomplex(TwistedOperators(A, G.action[1]), 3), deco, 1)
    rep = theorem_map_f(HKBicomplex(TwistedOperators(A, G.action[1]), 2), deco, 1)
    assert all(d["injective"] for d in rep)


@pytest.mark.parametrize("first", [0, 3])
def test_theorem_map_outside_its_stalk_names_the_degree(first):
    """The class splitting with the stalk blocks of e and s swapped from
    degree first on sends the theorem map of s into the rows of e's stalk.
    The chain-level check raises, naming the first such degree.  Ranks on
    homology alone show the breach at first = 0 only as onto_summand False,
    and at first = 3, the internal degree past the reported range, not at
    all."""
    from thl.errors import ChainMapError
    from thl.sparse import block_matrix

    A = dual_numbers_algebra()
    G = z2_group(A)
    deco = conjugacy_decomposition(A, G, 2)
    for n in range(first, deco.coinv.mixed.top + 1):
        dims = [st.dims[n] for st in deco.stalks]
        assert dims[0] == dims[1]
        swap = {(0, 1): QMatrix.identity(dims[0]), (1, 0): QMatrix.identity(dims[1])}
        deco.split[n] = block_matrix(swap, dims, dims) @ deco.split[n]
    with pytest.raises(ChainMapError) as err:
        theorem_map_f(HKBicomplex(TwistedOperators(A, G.action[1]), 2), deco, 1)
    assert str(err.value) == f"theorem map leaves the stalk of s at degree {first}"


def test_theorem_map_fixture3():
    A = triple_lines_algebra()
    rep = theorem_map(A, z3_group(A), 1, 2)
    assert all(d["injective"] for d in rep)  # the twisted theory vanishes
    for d in rep:
        assert d["dim_source"] == 0


# -- the group-indexed Connes complex ------------------------------------

def test_lambda_ground_field():
    Aq = ground_field_algebra()
    h = connes_lambda_complex(Aq, trivial_group(Aq), 3)
    assert h.dims == [1, 0, 1, 0]


def test_lambda_matches_oracle_with_coinvariants():
    A = dual_numbers_algebra()
    G = z2_group(A)
    with_coinv = connes_lambda_complex(A, G, 3, g_coinvariants=True)
    assert with_coinv.dims == [2, 1, 2, 1]
    without = connes_lambda_complex(A, G, 3, g_coinvariants=False)
    assert without.dims == hcG_bicomplex(A, G, 3).dims


def test_lambda_power_property():
    """t^{n+1} equals the diagonal inverse twist on each stalk."""
    from thl.crossed import lambda_cyclic_operator
    from thl.twisted import twist_matrix
    from thl.sparse import block_diag

    A = dual_numbers_algebra()
    G = z2_group(A)
    for n in range(3):
        t = lambda_cyclic_operator(A, G, n)
        power = QMatrix.identity(t.rows)
        for _ in range(n + 1):
            power = t @ power
        blocks = []
        for g0 in range(G.order):
            ginv = G.inverse[g0]
            blocks.append(twist_matrix(A, G.action[ginv], n, reduced=False))
        assert power == block_diag(blocks)


def test_lambda_triple_lines_matches_oracle():
    A = triple_lines_algebra()
    G = z3_group(A)
    lam = connes_lambda_complex(A, G, 3)
    prop = proposition_bicomplex(A, G, 3)
    assert lam.dims == prop.dims == [1, 0, 1, 0]


# -- the Connes complex against the total complex -------------------------
# The (b, B) total complex (sum_j C_{n-2j}, boundary b + B) is ranked from
# the mixed complex; the Connes complex C/(1 - t) is ranked on its own.

def test_connes_equals_total_ground_field():
    Aq = ground_field_algebra()
    ops = TwistedOperators(Aq, AlgebraMap.identity(1))
    total = HKBicomplex(ops, 4).mixed.total_homology().dims
    assert connes_complex(ops, 4).column_homology().dims == total == [1, 0, 1, 0, 1]


def test_total_homology_of_zero_differentials():
    """With zero maps the total homology is the stacked module dimensions."""
    from thl.complexes import MixedComplex

    dims = [2, 3, 1, 2, 1]
    b = [None] + [QMatrix.zero(dims[n - 1], dims[n]) for n in range(1, 5)]
    B = [QMatrix.zero(dims[n + 1], dims[n]) for n in range(4)] + [None]
    mixed = MixedComplex(dims, b, B)
    expected = [
        sum(dims[n - 2 * j] for j in range(n // 2 + 1)) for n in range(4)
    ]
    assert mixed.total_homology().dims == expected


def test_connes_equals_total_fixture2_through_degree4():
    A = dual_numbers_algebra()
    G = z2_group(A)
    ops = TwistedOperators(A, sign_twist(A))
    total = HKBicomplex(ops, 4).mixed.total_homology().dims
    assert connes_complex(ops, 4).column_homology().dims == total
    prop = proposition_bicomplex(A, G, 4)
    assert connes_lambda_complex(A, G, 4).dims == prop.dims


# -- stalkwise identities against assembled blocks ------------------------

def _fixture_instance(name):
    import os

    from thl.config import load_config, load_fixture

    if name == "half-lines-z2":
        path = os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json")
        cfg = load_config(path)
    else:
        cfg = load_fixture(name)
    return cfg.algebra, cfg.group


def _stalkwise_blocks(bound):
    from thl.crossed import IDENTITIES, STALKWISE

    for name in sorted(STALKWISE):
        p_min, q_min, _ = IDENTITIES[name]
        for s in range(bound + 1):
            for p in range(p_min, s - q_min + 1):
                yield name, p, s - p


@pytest.mark.parametrize("name", ["ground-field", "trunc-poly-z2", "triple-lines-z3",
                                  "triple-lines-s3", "trunc-cubic-z2", "half-lines-z2"])
def test_stalkwise_identities_match_assembled_blocks(monkeypatch, name):
    from oracles import assembled_identity

    from thl import crossed

    A, G = _fixture_instance(name)
    bound = 2 if G.order > 3 else 3
    ops, whole = GJOperators(A, G), GJOperators(A, G)
    for ident, p, q in _stalkwise_blocks(bound):
        assert ops.identity(ident, p, q) == assembled_identity(whole, ident, p, q) == ""
    # identity_suite tests each stalkwise identity once per degree q, on the
    # block (0, q) that holds every group element's block once
    names, tests = [], {}
    check, zero_test = crossed.check_identity, crossed.first_nonzero_column

    def named(ops_, ident, p, q):
        names.append(ident)
        return check(ops_, ident, p, q)

    def counted(terms):
        tests[names[-1]] = tests.get(names[-1], 0) + 1
        return zero_test(terms)

    monkeypatch.setattr(crossed, "check_identity", named)
    monkeypatch.setattr(crossed, "first_nonzero_column", counted)
    identity_suite(GJOperators(A, G), bound)
    for ident in crossed.STALKWISE:
        assert tests[ident] == bound + 1 - crossed.IDENTITIES[ident][1]


def test_suites_check_stalkwise_identities_only_at_p_zero(monkeypatch):
    """identity_suite and full_pair_check evaluate a stalkwise identity on
    its blocks (0, q) alone, every q up to the bound."""
    from thl import crossed

    A, G = _fixture_instance("triple-lines-s3")
    checked = []
    check = crossed.check_identity

    def recorded(ops, ident, p, q):
        checked.append((ident, p, q))
        return check(ops, ident, p, q)

    monkeypatch.setattr(crossed, "check_identity", recorded)
    ops = GJOperators(A, G)
    identity_suite(ops, 3)
    full_pair_check(ops, 3)
    assert {c for c in checked if c[0] in crossed.STALKWISE} == {
        (ident, 0, q) for ident in crossed.STALKWISE
        for q in range(crossed.IDENTITIES[ident][1], 4)
    }


@pytest.mark.parametrize("operator, failing", [
    ("alg_b", {"b^2=0", "bB+Bb=1-T", "[T,b]=0"}),
    ("alg_B", {"B^2=0", "bB+Bb=1-T", "[T,B]=0"}),
    ("alg_twist", {"bB+Bb=1-T", "[T,b]=0", "[T,B]=0"}),
], ids=["alg_b", "alg_B", "alg_twist"])
@pytest.mark.parametrize("broken", [1, 2])
def test_broken_element_operator_gives_the_assembled_detail(monkeypatch, operator, failing,
                                                            broken):
    """One element's b, B or twist off by one entry in degree 1: every
    stalkwise identity names the same first failing block, tensor and
    residual column as its evaluation by whole products on assembled
    blocks, and the identities that read the broken operator fail."""
    from oracles import assembled_identity

    A = triple_lines_algebra()
    G = z3_group(A)
    build = getattr(GJOperators, operator)

    def off_by_one(self, elem, q, *reduced):
        m = build(self, elem, q, *reduced)
        if elem != broken or q != 1:
            return m
        return m + QMatrix.from_columns(m.rows, [{m.rows - 1: 1} if k == 2 else {}
                                                 for k in range(m.cols)])

    monkeypatch.setattr(GJOperators, operator, off_by_one)
    ops, whole = GJOperators(A, G), GJOperators(A, G)
    details = {}
    for ident, p, q in _stalkwise_blocks(3):
        details[ident, p, q] = ops.identity(ident, p, q)
        assert details[ident, p, q] == assembled_identity(whole, ident, p, q)
    assert {ident for (ident, _, _), d in details.items() if d} == failing
    # the suite reports the first failing block by total degree, then p
    suite = {name: detail for name, _, detail in identity_suite(GJOperators(A, G), 3)}
    for ident in failing:
        first = next(details[ident, p, s - p] for s in range(4) for p in range(s + 1)
                     if details.get((ident, p, s - p)))
        assert suite[ident] == first


@pytest.mark.parametrize("broken, failing", [
    ("Bbar", {"bB+Bb+bbarU+Ubbar=0", "bU+Ub=0"}),
    ("bbar", {"bbar^2=0", "bbarB+Bbbar=0", "[T,bbar]=0", "b.bbar+bbar.b=0",
              "bB+Bb+bbarU+Ubbar=0"}),
])
def test_broken_group_operator_gives_the_assembled_detail(monkeypatch, broken, failing):
    """bbar or Bbar off by one entry on block (1, 1): every identity names
    the same first failing tensor and residual column as its evaluation by
    whole products on assembled blocks, the identities that read the
    broken block fail, and identity_suite and full_pair_check report the
    same first failures."""
    from oracles import assembled_identity

    from thl.crossed import FULL_PAIR, IDENTITIES

    A = triple_lines_algebra()
    G = z3_group(A)
    build = getattr(GJOperators, broken)

    def off_by_one(self, p, q):
        m = build(self, p, q)
        if (p, q) != (1, 1):
            return m
        return m + QMatrix.from_columns(m.rows, [{m.rows - 1: 1} if k == 2 else {}
                                                 for k in range(m.cols)])

    monkeypatch.setattr(GJOperators, broken, off_by_one)
    ops, whole = GJOperators(A, G), GJOperators(A, G)
    details = {}
    for ident, (p_min, q_min, _) in IDENTITIES.items():
        for s in range(4):
            for p in range(p_min, s - q_min + 1):
                details[ident, p, s - p] = ops.identity(ident, p, s - p)
                assert details[ident, p, s - p] == assembled_identity(whole, ident, p, s - p)
    assert {ident for (ident, _, _), d in details.items() if d} == failing
    # the first failing block by total degree, then p
    first = {ident: next((details[ident, p, s - p] for s in range(4) for p in range(s + 1)
                          if details.get((ident, p, s - p))), "")
             for ident in IDENTITIES}
    fresh = GJOperators(A, G)
    for name, ok, detail in identity_suite(fresh, 3):
        assert (ok, detail) == (not first[name], first[name])
    assert full_pair_check(fresh, 3) == tuple(
        (name, not any(first[part] for part in parts)) for name, parts in FULL_PAIR
    )


def test_identity_checks_multiply_only_to_build_U(monkeypatch):
    """Once the operators are built, the suite and the full boundary pair
    call QMatrix.__matmul__ only to build U = T.Bbar, once per block."""
    A, G = _fixture_instance("triple-lines-s3")
    ops = GJOperators(A, G)
    identity_suite(ops, 3)
    full_pair_check(ops, 3)
    for key in [k for k in ops._memo if k[0] in ("identity", "U")]:
        del ops._memo[key]
    products = []
    matmul = QMatrix.__matmul__

    def counted(self, other):
        products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(QMatrix, "__matmul__", counted)
    identity_suite(ops, 3)
    full_pair_check(ops, 3)
    blocks = [k[1:] for k in ops._memo if k[0] == "U"]
    assert blocks and len(products) == len(blocks) == len(set(blocks))
    for (X, Y), (p, q) in zip(products, blocks):
        assert X is ops.T(p + 1, q) and Y is ops.Bbar(p, q)
