import pytest

from thl.algebra import AlgebraMap, trivial_group
from thl.crossed import CoinvariantComplex, GJOperators, LambdaComplex
from thl.rational import Q
from thl.sequences import (
    DeRhamComplex,
    derham_d,
    derham_d_ambient,
    derham_homology,
    g_hochschild,
    karoubi_sequence,
    sbi_sequence,
)
from thl.sparse import QMatrix
from thl.twisted import twisted_hochschild

from fixtures_for_tests import (
    coinvariant_complex,
    dual_numbers_algebra,
    ground_field_algebra,
    karoubi,
    s3_group,
    triple_lines_algebra,
    z2_group,
    z3_group,
)


# -- group Hochschild ----------------------------------------------------

def test_g_hochschild_trivial_group_is_plain():
    A = dual_numbers_algebra()
    lib = g_hochschild(A, trivial_group(A), 3).dims
    assert lib == twisted_hochschild(A, AlgebraMap.identity(2), 3).dims


def test_g_hochschild_class_count():
    """Degree 0 over the ground field counts conjugacy classes."""
    Aq = ground_field_algebra()
    z3 = z3_group(triple_lines_algebra())
    # replace the action with trivial maps on Q
    from thl.algebra import FiniteGroupAction

    g3 = FiniteGroupAction(
        z3.element_names, z3.mult_table, [AlgebraMap.identity(1)] * 3
    )
    assert g_hochschild(Aq, g3, 2).dims[0] == 3
    s3 = s3_group(triple_lines_algebra())
    g6 = FiniteGroupAction(
        s3.element_names, s3.mult_table, [AlgebraMap.identity(1)] * 6
    )
    assert g_hochschild(Aq, g6, 2).dims[0] == 3  # classes of sizes 1, 3, 2


def test_g_hochschild_fixture2():
    A = dual_numbers_algebra()
    assert g_hochschild(A, z2_group(A), 3).dims == [2, 1, 1, 1]


# -- periodicity sequence -------------------------------------------------

def test_sbi_ground_field_classical_pattern():
    Aq = ground_field_algebra()
    rep = sbi_sequence(coinvariant_complex(Aq, trivial_group(Aq), 3))
    assert all(n.exact for n in rep)
    labels = {n.label: n for n in rep}
    # S: HC_2 -> HC_0 surjective in the classical pattern
    shifted = labels["HC_0 (shift of HC_2)"]
    assert shifted.image_dim == 1


def test_sbi_composites_zero_everywhere():
    A = dual_numbers_algebra()
    rep = sbi_sequence(coinvariant_complex(A, z2_group(A), 3))
    assert all(n.composite_zero for n in rep)


def test_sbi_fixture2_exact():
    A = dual_numbers_algebra()
    rep = sbi_sequence(coinvariant_complex(A, z2_group(A), 3))
    assert all(n.exact for n in rep)


def test_sbi_fixture3_exact():
    A = triple_lines_algebra()
    rep = sbi_sequence(coinvariant_complex(A, z3_group(A), 3))
    assert all(n.exact for n in rep)


@pytest.mark.parametrize("fixture, N, nodes", [
    ("ground-field", 0, [("HC_0", "I_0", "S_0", 1, 1, True), ("HH_0", "d_1", "I_0", 0, 0, True)]),
    ("ground-field", 1, [
        ("HC_0", "I_0", "S_0", 1, 1, True), ("HC_1", "I_1", "S_1", 0, 0, True),
        ("HH_0", "d_1", "I_0", 0, 0, True), ("HH_1", "d_2", "I_1", 0, 0, True),
    ]),
    ("trunc-poly-z2", 0, [("HC_0", "I_0", "S_0", 2, 2, True), ("HH_0", "d_1", "I_0", 0, 0, True)]),
    ("trunc-poly-z2", 1, [
        ("HC_0", "I_0", "S_0", 2, 2, True), ("HC_1", "I_1", "S_1", 1, 1, True),
        ("HH_0", "d_1", "I_0", 0, 0, True), ("HH_1", "d_2", "I_1", 0, 0, True),
    ]),
])
def test_sbi_low_degree_nodes(fixture, N, nodes):
    """Below degree 2 every node meets a zero map: S_0 and S_1 land in
    HC_{-2} and HC_{-1}, and nothing comes into HH_0.  Each node reads
    (label, incoming, outgoing, image, kernel, composite zero)."""
    from thl.config import load_fixture

    cfg = load_fixture(fixture)
    rep = sbi_sequence(coinvariant_complex(cfg.algebra, cfg.group, N))
    assert [
        (n.label, n.incoming, n.outgoing, n.image_dim, n.kernel_dim, n.composite_zero)
        for n in rep
    ] == nodes


def test_sbi_indexing_note_present():
    from thl.cli import run
    from thl.config import load_fixture

    notes = run("verify-sbi", load_fixture("ground-field")).notes
    assert any("HH_{n-1}" in note for note in notes)


# -- de Rham ----------------------------------------------------------------

def test_derham_d_kills_unit_slot():
    A = dual_numbers_algebra()
    G = z2_group(A)
    d0 = derham_d_ambient(A, G, 0)
    basis = GJOperators(A, G).basis(0, 0)
    # d(g | 1) = (g | 1, 1bar) = 0
    assert d0.column(basis.encode_group((0,)) * basis.asize + 0) == {}


def test_derham_d_hand_value():
    """G trivial, dual numbers: d(e | x) = (e | 1, xbar)."""
    A = dual_numbers_algebra()
    G = trivial_group(A)
    d0 = derham_d_ambient(A, G, 0)
    col = d0.column(1)
    assert col == {0: Q(1)}  # (1, xbar) is the first degree-1 reduced tensor


def test_derham_dd_zero():
    A = dual_numbers_algebra()
    G = z2_group(A)
    for n in range(3):
        dn = derham_d_ambient(A, G, n)
        dn1 = derham_d_ambient(A, G, n + 1)
        assert (dn1 @ dn).is_zero()


def test_derham_ground_field():
    Aq = ground_field_algebra()
    assert derham_homology(Aq, trivial_group(Aq), 3).dims == [1, 0, 0, 0]


def test_derham_fixture2():
    A = dual_numbers_algebra()
    assert derham_homology(A, z2_group(A), 3).dims == [2, 0, 0, 0]


def test_derham_descends_assertion_holds():
    """Constructing the complex exercises every descent check exactly."""
    A = triple_lines_algebra()
    DeRhamComplex(coinvariant_complex(A, z3_group(A), 2))


def test_derham_d_on_coinvariants():
    """The public map acts on orbit-quotient coordinates; with a trivial
    group it coincides with the ambient formula."""
    A = dual_numbers_algebra()
    Gt = trivial_group(A)
    assert derham_d(coinvariant_complex(A, Gt, 1), 0) == derham_d_ambient(A, Gt, 0)
    G = z2_group(A)
    d0 = derham_d(coinvariant_complex(A, G, 1), 0)
    cx0 = DeRhamComplex(coinvariant_complex(A, G, 1))
    assert d0.cols == cx0.coinv.mixed.presentations[0].quotient_dim
    assert d0.rows == cx0.coinv.mixed.presentations[1].quotient_dim


def test_homology_result_basis_invariant():
    """dims equal cycle rank minus boundary rank wherever bases exist."""
    from thl.sparse import rank
    from thl.twisted import HKBicomplex, TwistedOperators
    from fixtures_for_tests import sign_twist

    A = dual_numbers_algebra()
    hk = HKBicomplex(TwistedOperators(A, sign_twist(A)), 3)
    h = hk.mixed.total_homology()
    for n in range(h.valid_through + 1):
        cy = h.cycle_basis(n)
        bd = h.boundary_basis(n)
        assert h.dims[n] == rank(cy) - rank(bd)


# -- Karoubi ----------------------------------------------------------------

def test_karoubi_ground_field_all_nodes():
    Aq = ground_field_algebra()
    rep = karoubi(Aq, trivial_group(Aq), 3)
    assert all(n.ok for n in rep)


def test_karoubi_rejects_connes_complex_it_cannot_read():
    """The sequence needs the g-coinvariant Connes complex at the degree of
    the coinvariant complex."""
    A = dual_numbers_algebra()
    ops = GJOperators(A, z2_group(A))
    coinv = CoinvariantComplex(ops, 2)
    for connes in (LambdaComplex(ops, 2, g_coinvariants=False), LambdaComplex(ops, 3)):
        with pytest.raises(ValueError):
            karoubi_sequence(DeRhamComplex(coinv), connes)


def test_karoubi_dual_numbers_trivial_group():
    """Nilpotent augmentation ideal: the classical sequence is exact."""
    A = dual_numbers_algebra()
    rep = karoubi(A, trivial_group(A), 3)
    assert all(n.ok for n in rep)


def test_karoubi_fixture2_low_degrees():
    A = dual_numbers_algebra()
    rep = karoubi(A, z2_group(A), 3)
    by_degree = {n.degree: n for n in rep}
    assert by_degree[0].ok
    assert by_degree[1].ok
    # Degree 2: the periodicity class of the semisimple group-algebra part
    # of the crossed product lies in the kernel of the degree raise, and
    # the de Rham modules above degree zero cannot reach it.  This mismatch
    # is forced by the module dimensions, not by the realization.
    assert by_degree[2].left_injective
    assert by_degree[2].composite_zero
    assert not by_degree[2].middle_exact
    assert by_degree[2].hdr_dim == 0 and by_degree[2].middle_kernel == 1


# -- the reduced de Rham complex ---------------------------------------------

def _one_step_reduced(coinv):
    """Presentations and d of the reduced de Rham complex, every degree
    divided at once by all its relations, the unit class among those of
    degree 0."""
    from thl.quotient import descend_map, quotient_by

    mixed, k = coinv.mixed, coinv.mixed.top
    d = [derham_d(coinv, n) for n in range(k)]
    ab = []
    for n in range(k + 1):
        parts = []
        if n < k:
            parts += [mixed.b[n + 1] @ d[n], mixed.b[n + 1]]
        if n >= 1:
            parts.append(d[n - 1] @ mixed.b[n])
        if n == 0:
            basis = coinv.ops.basis(0, 0)
            unit = basis.encode((coinv.ops.group.identity_index,), (0,))
            parts.append(coinv.mixed.presentations[0].projection
                         @ QMatrix.from_columns(basis.size, [{unit: 1}]))
        rels = QMatrix.zero(mixed.dims[n], 0)
        for part in parts:
            rels = rels.hstack(part)
        ab.append(quotient_by(mixed.dims[n], rels))
    return ab, [descend_map(d[n], ab[n], ab[n + 1]) for n in range(k)]


@pytest.mark.parametrize("name", ["ground-field", "trunc-poly-z2", "triple-lines-z3",
                                  "triple-lines-s3", "trunc-cubic-z2", "half-lines-z2"])
def test_reduced_derham_derived_from_the_plain_one(name):
    """DeRhamComplex.reduced() divides degree 0 of the plain complex by the
    unit class and descends d_0 again; every presentation and every d of
    the result equals the complex divided by all its relations at once, and
    the plain complex is left as it was."""
    import os

    from thl.config import load_config, load_fixture

    if name == "half-lines-z2":
        cfg = load_config(os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json"))
    else:
        cfg = load_fixture(name)
    plain = DeRhamComplex(coinvariant_complex(cfg.algebra, cfg.group, cfg.max_degree))
    plain_ab, plain_d = list(plain.ab), list(plain.d_ab)
    reduced = plain.reduced()
    ab, d = _one_step_reduced(plain.coinv)

    def fields(p):
        return (p.ambient_dim, p.quotient_dim, p.relation_basis, p.projection, p.section,
                p.pivot_rows, p.free_rows)

    assert [fields(p) for p in reduced.ab] == [fields(p) for p in ab]
    assert reduced.d_ab == d + [None]
    assert plain.ab == plain_ab and plain.d_ab == plain_d


@pytest.mark.parametrize("name", ["ground-field", "trunc-poly-z2", "triple-lines-z3",
                                  "triple-lines-s3", "trunc-cubic-z2", "half-lines-z2"])
def test_derham_relations_need_no_b_after_d_block(name):
    """Below the top degree the columns of b d lie in im(b), so dividing by
    im(d b) + im(b) gives the same presentation as stacking b d too."""
    import os

    from thl.config import load_config, load_fixture
    from thl.quotient import quotient_by

    if name == "half-lines-z2":
        cfg = load_config(os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json"))
    else:
        cfg = load_fixture(name)
    dr = DeRhamComplex(coinvariant_complex(cfg.algebra, cfg.group, cfg.max_degree))
    mixed, d, k = dr.coinv.mixed, dr.d_coinv, dr.coinv.mixed.top
    for n in range(k + 1):
        parts = []
        if n < k:
            parts.append(mixed.b[n + 1] @ d[n])
        if n >= 1:
            parts.append(d[n - 1] @ mixed.b[n])
        if n < k:
            parts.append(mixed.b[n + 1])
        rels = QMatrix.zero(mixed.dims[n], 0)
        for part in parts:
            rels = rels.hstack(part)
        ref = quotient_by(mixed.dims[n], rels)
        for field in ("ambient_dim", "quotient_dim", "relation_basis", "projection",
                      "section", "pivot_rows", "free_rows"):
            assert getattr(dr.ab[n], field) == getattr(ref, field), (n, field)
