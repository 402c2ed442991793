import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from thl.errors import WellDefinednessError
from thl.quotient import (
    QuotientPresentation,
    _coordinates,
    _echelon_presentation,
    coinvariant_relations,
    compose_quotients,
    descend_map,
    direct_sum,
    quotient_by,
    trivial_quotient,
)
from thl.rational import Q
from thl.sparse import QMatrix, block_diag, rank


def test_quotient_one_relation():
    qp = quotient_by(2, QMatrix.from_dense([[1], [-1]]))
    assert qp.quotient_dim == 1
    assert (qp.projection @ qp.section) == QMatrix.identity(1)
    assert (qp.projection @ qp.relation_basis).is_zero()


def test_quotient_no_relations():
    qp = quotient_by(3, QMatrix.zero(3, 0))
    assert qp.quotient_dim == 3
    assert qp.projection == QMatrix.identity(3)


def test_quotient_full_relations():
    qp = quotient_by(2, QMatrix.identity(2))
    assert qp.quotient_dim == 0


def test_quotient_dim_formula():
    rels = QMatrix.from_dense([[1, 2], [0, 0], [1, 2]])
    qp = quotient_by(3, rels)
    assert qp.quotient_dim == 3 - rank(rels)


def test_descend_identity():
    qp = quotient_by(2, QMatrix.from_dense([[1], [-1]]))
    assert descend_map(QMatrix.identity(2), qp, qp) == QMatrix.identity(1)


def test_descend_kills_quotiented_map():
    swap = QMatrix.from_dense([[0, 1], [1, 0]])
    qp = quotient_by(2, coinvariant_relations(2, [swap]))
    one_minus = QMatrix.identity(2) - swap
    assert descend_map(one_minus, qp, qp).is_zero()


def test_descend_rejects_incompatible():
    qp = quotient_by(2, QMatrix.from_dense([[1], [0]]))
    rot = QMatrix.from_dense([[0, -1], [1, 0]])
    with pytest.raises(WellDefinednessError):
        descend_map(rot, qp, qp)


def test_descend_matches_column_evaluation():
    """Descending equals evaluating on section columns and projecting."""
    swap = QMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    qp = quotient_by(3, coinvariant_relations(3, [swap]))
    f = QMatrix.from_dense([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    down = descend_map(f, qp, qp)
    by_hand = qp.projection @ (f @ qp.section)
    assert down == by_hand


PRESENTATION_ATTRIBUTES = (
    "ambient_dim",
    "quotient_dim",
    "relation_basis",
    "projection",
    "section",
    "pivot_rows",
    "free_rows",
    "pivot_images",
)


def assert_same_presentation(a, b):
    for name in PRESENTATION_ATTRIBUTES:
        assert getattr(a, name) == getattr(b, name), name


def test_zero_relation_columns_change_nothing():
    swap = QMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    rels = coinvariant_relations(3, [QMatrix.identity(3), swap])
    # m - m = 0 for the identity, and for the fixed basis vector of swap
    assert rels.cols == 2
    assert all(rels._cols)
    with_zeros = QMatrix.zero(3, 1).hstack(rels).hstack(QMatrix.zero(3, 2))
    assert_same_presentation(quotient_by(3, with_zeros), quotient_by(3, rels))


@pytest.mark.parametrize("dim, ncols", [(0, 0), (1, 0), (3, 2), (5, 0), (5, 4)])
def test_empty_relation_span_is_the_echelon_presentation(dim, ncols):
    """quotient_by builds the identity presentation directly when the
    relations span nothing; it is the echelon path's result in every field."""
    zero = QMatrix.zero(dim, ncols)
    want = _echelon_presentation(dim, zero)
    assert want.pivot_rows == [] and want.projection == QMatrix.identity(dim)
    assert_same_presentation(quotient_by(dim, zero), want)
    assert_same_presentation(trivial_quotient(dim), want)


def test_trivial_quotient():
    qp = trivial_quotient(4)
    assert qp.quotient_dim == 4


def _peak_mb(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build, args", [
    (trivial_quotient, lambda: (50_000,)),
    (quotient_by, lambda: (50_000, QMatrix.zero(50_000, 3))),
    (compose_quotients, lambda: (trivial_quotient(50_000), trivial_quotient(50_000))),
    (direct_sum, lambda: ([trivial_quotient(25_000), trivial_quotient(25_000)],)),
    (direct_sum, lambda: (
        [trivial_quotient(50_000), quotient_by(2, QMatrix.from_dense([[1], [-1]]))],
    )),
], ids=["trivial", "zero-relations", "compose", "direct-sum", "direct-sum-one-relation"])
def test_empty_relation_span_stores_no_ambient_size_matrix(build, args):
    """With no relations the projection is the identity and the section
    selects every row: both are built when read, never by a builder, and a
    part without relations adds nothing to the pivot images of a direct
    sum.  An identity of size 50 000 takes over 14 MB; the free-row list
    about 2."""
    assert _peak_mb(build, *args()) < 5


small = st.integers(min_value=-3, max_value=3)


@st.composite
def relation_setups(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    nrel = draw(st.integers(min_value=0, max_value=4))
    data = draw(
        st.lists(st.lists(small, min_size=nrel, max_size=nrel), min_size=dim, max_size=dim)
    )
    return dim, QMatrix.from_dense(data, dim, nrel)


@settings(max_examples=50, deadline=None)
@given(relation_setups())
def test_quotient_invariants(setup):
    dim, rels = setup
    qp = quotient_by(dim, rels)
    assert qp.quotient_dim == dim - rank(rels)
    assert (qp.projection @ qp.section) == QMatrix.identity(qp.quotient_dim)
    assert (qp.projection @ qp.relation_basis).is_zero()
    assert (qp.projection @ rels).is_zero()


@settings(max_examples=60, deadline=None)
@given(relation_setups(), relation_setups())
def test_quotient_of_direct_sum_is_sum_of_quotients(first, second):
    """The crossed-product quotient complex divides each total degree by
    the block-diagonal sum of its blocks' relations, relying on this."""
    (d1, r1), (d2, r2) = first, second
    whole = quotient_by(d1 + d2, block_diag([r1, r2]))
    parts = direct_sum([quotient_by(d1, r1), quotient_by(d2, r2)])
    assert_same_presentation(whole, parts)


@st.composite
def further_relation_setups(draw):
    """(dim, relations, extra): extra divides the quotient coordinates of
    quotient_by(dim, relations)."""
    dim, rels = draw(relation_setups())
    qdim = dim - rank(rels)
    nextra = draw(st.integers(min_value=0, max_value=3))
    data = draw(
        st.lists(st.lists(small, min_size=nextra, max_size=nextra), min_size=qdim, max_size=qdim)
    )
    return dim, rels, QMatrix.from_dense(data, qdim, nextra)


@settings(max_examples=80, deadline=None)
@given(further_relation_setups())
def test_quotient_of_quotient_is_quotient_by_both(setup):
    """The unit-reduced Connes complex divides the plain one once more in
    its quotient coordinates, relying on this."""
    dim, rels, extra = setup
    first = quotient_by(dim, rels)
    composite = compose_quotients(first, quotient_by(first.quotient_dim, extra))
    assert_same_presentation(composite, quotient_by(dim, rels.hstack(first.section @ extra)))


@st.composite
def built_presentations(draw):
    """A presentation from each of the four builders."""
    builder = draw(st.sampled_from(["quotient_by", "trivial", "compose", "direct_sum"]))
    if builder == "quotient_by":
        return quotient_by(*draw(relation_setups()))
    if builder == "trivial":
        return trivial_quotient(draw(st.integers(min_value=0, max_value=5)))
    if builder == "compose":
        dim, rels, extra = draw(further_relation_setups())
        first = quotient_by(dim, rels)
        return compose_quotients(first, quotient_by(first.quotient_dim, extra))
    n = draw(st.integers(min_value=1, max_value=3))
    return direct_sum([quotient_by(*draw(relation_setups())) for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(built_presentations(), st.data())
def test_project_splits_rows_that_every_builder_keeps_in_order(qp, data):
    """Pivot and free rows are ascending, disjoint and cover every
    coordinate, which ``project`` relies on to place a row by bisection;
    it equals the product with the projection written out column by
    column (e_k at free row k, pivot_images column k at pivot row k)."""
    assert qp.pivot_rows == sorted(set(qp.pivot_rows))
    assert qp.free_rows == sorted(set(qp.free_rows))
    assert sorted(qp.pivot_rows + qp.free_rows) == list(range(qp.ambient_dim))
    cols = [None] * qp.ambient_dim
    for k, r in enumerate(qp.free_rows):
        cols[r] = {k: 1}
    for k, r in enumerate(qp.pivot_rows):
        cols[r] = qp.pivot_images.column(k)
    projection = QMatrix.from_columns(qp.quotient_dim, cols)
    ncols = data.draw(st.integers(min_value=0, max_value=3))
    m = QMatrix.from_dense(data.draw(st.lists(
        st.lists(small.map(lambda v: Q(v, 2)), min_size=ncols, max_size=ncols),
        min_size=qp.ambient_dim, max_size=qp.ambient_dim,
    )), qp.ambient_dim, ncols)
    assert qp.project(m) == projection @ m


@settings(max_examples=100, deadline=None)
@given(built_presentations())
def test_relation_basis_is_e_pivot_less_the_lifted_pivot_images(qp):
    """The relation basis, built in one pass, equals the product formula
    e_pivot - section @ pivot_images, denominator included."""
    oracle = _coordinates(qp.ambient_dim, qp.pivot_rows) - qp.section @ qp.pivot_images
    assert qp.relation_basis == oracle


@settings(max_examples=50, deadline=None)
@given(relation_setups())
def test_descend_identity_property(setup):
    dim, rels = setup
    qp = quotient_by(dim, rels)
    assert descend_map(QMatrix.identity(dim), qp, qp) == QMatrix.identity(qp.quotient_dim)


@st.composite
def unrelated_map_setups(draw):
    """(f, src, dst) where src, dst or both have no relations and f descends."""
    sdim, sdata = draw(relation_setups())
    ddim, ddata = draw(relation_setups())
    src, dst = quotient_by(sdim, sdata), quotient_by(ddim, ddata)
    case = draw(st.sampled_from(["no-src", "no-dst", "neither"]))
    if case != "no-dst":
        src = trivial_quotient(sdim)
    if case != "no-src":
        dst = trivial_quotient(ddim)
    # f = g . projection kills the source relations
    data = draw(st.lists(
        st.lists(small, min_size=src.quotient_dim, max_size=src.quotient_dim),
        min_size=ddim, max_size=ddim,
    ))
    f = QMatrix.from_dense(data, ddim, src.quotient_dim) @ src.projection
    return f, src, dst


@settings(max_examples=60, deadline=None)
@given(unrelated_map_setups())
def test_descend_without_relations_matches_products(setup):
    f, src, dst = setup
    assert descend_map(f, src, dst) == dst.projection @ f @ src.section


def test_descend_into_no_relations_still_checked():
    src = quotient_by(2, QMatrix.from_dense([[1], [0]]))
    dst = trivial_quotient(2)
    with pytest.raises(WellDefinednessError):
        descend_map(QMatrix.identity(2), src, dst)
    # a map killing the relation descends
    kill = QMatrix.from_dense([[0, 1], [0, 2]])
    assert descend_map(kill, src, dst) == QMatrix.from_dense([[1], [2]])


@st.composite
def related_map_setups(draw):
    """(f, src, dst) with relations on both sides.  f descends (a map of
    quotients plus a map into the dst relations), or is such a map plus
    v times the coordinate of pivot k of src, which moves relation column k
    alone (the reduced echelon columns vanish on the other pivots), or is
    arbitrary."""
    sdim, srels = draw(relation_setups())
    ddim, drels = draw(relation_setups())
    src, dst = quotient_by(sdim, srels), quotient_by(ddim, drels)
    assume(src.pivot_rows and dst.pivot_rows)

    def matrix(rows, cols):
        data = draw(st.lists(
            st.lists(small, min_size=cols, max_size=cols), min_size=rows, max_size=rows,
        ))
        return QMatrix.from_dense(data, rows, cols)

    case = draw(st.sampled_from(["descends", "one-bad-column", "arbitrary"]))
    if case == "arbitrary":
        return matrix(ddim, sdim), src, dst
    g, h = matrix(ddim, src.quotient_dim), matrix(len(dst.pivot_rows), sdim)
    f = g @ src.projection + dst.relation_basis @ h
    if case == "one-bad-column":
        pivot = draw(st.sampled_from(src.pivot_rows))
        f = f + matrix(ddim, 1) @ QMatrix.from_dense([[int(j == pivot) for j in range(sdim)]])
    return f, src, dst


@settings(max_examples=150, deadline=None)
@given(related_map_setups())
def test_descend_with_relations_on_both_sides_matches_products(setup):
    """descend_map raises exactly when dst.projection @ f @ src.relation_basis
    is nonzero, naming its first nonzero column and that relation's pivot
    coordinate; otherwise it returns dst.projection @ f @ src.section."""
    f, src, dst = setup
    moved = dst.projection @ f @ src.relation_basis
    bad = [j for j, col in enumerate(moved._cols) if col]
    if bad:
        with pytest.raises(WellDefinednessError) as err:
            descend_map(f, src, dst)
        assert err.value.location == (
            f"relation column {bad[0]} (pivot coordinate {src.pivot_rows[bad[0]]})"
        )
        # the residual: that column in dst quotient coordinates, rows ascending
        assert str(dict(sorted(moved.column(bad[0]).items()))) in str(err.value)
    else:
        assert descend_map(f, src, dst) == dst.projection @ f @ src.section


def test_project_drops_a_free_entry_cancelled_by_a_pivot_image():
    """Q^3 / (2 e0 + 3 e1): the class of e0 is -3/2 e1.  m = (1/3, 1/2, 5/2)
    projects to (1/3 * -3/2 + 1/2, 5/2) = (0, 5/2): the cancelled entry is
    not stored and the denominator 6 * 2 reduces to 2."""
    qp = quotient_by(3, QMatrix.from_dense([[2], [3], [0]]))
    assert qp.pivot_rows == [0] and qp.pivot_images.column(0) == {0: Q(-3, 2)}
    assert qp.pivot_images.den == 2
    m = QMatrix.from_dense([[Q(1, 3)], [Q(1, 2)], [Q(5, 2)]])
    assert m.den == 6
    projected = qp.project(m)
    assert projected._cols == [{1: 5}] and projected.den == 2
    assert projected == qp.projection @ m


def test_descend_projects_once(monkeypatch):
    """With relations on both sides, f is projected once: the induced map
    and the well-definedness test both read that one projection."""
    src = quotient_by(3, QMatrix.from_dense([[1], [-1], [0]]))
    dst = quotient_by(2, QMatrix.from_dense([[1], [1]]))
    calls = []
    project = QuotientPresentation.project

    def counted(self, m):
        calls.append(m)
        return project(self, m)

    monkeypatch.setattr(QuotientPresentation, "project", counted)
    f = QMatrix.from_dense([[1, 1, 0], [2, 2, 3]])
    assert descend_map(f, src, dst) == QMatrix.from_dense([[1, 3]])
    assert len(calls) == 1
