from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from thl.rational import Q, QONE, parse_q
from thl.sparse import (
    QMatrix,
    block_diag,
    block_matrix,
    echelon,
    echelon_rows,
    first_nonzero_column,
    image_basis,
    image_pivot_cols,
    kernel_basis,
    kron,
    rank,
    rref,
    solve_general,
    solve_in_span,
)
from thl import sparse
from thl.sparse import _annihilators, _eliminate, _primitive, _reduce

from oracles import (
    dense_rank,
    dense_rref,
    mat_mul,
    one_int_per_row,
    reference_first_nonzero_column,
    reference_rank,
)


def test_rank_identity():
    assert rank(QMatrix.identity(3)) == 3


def test_rank_all_ones():
    assert rank(QMatrix.from_dense([[1, 1], [1, 1]])) == 1


def test_rank_zero_matrix():
    assert rank(QMatrix.zero(4, 7)) == 0


def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(3)).cols == 0


def test_kernel_zero_full():
    kb = kernel_basis(QMatrix.zero(3, 3))
    assert kb.cols == 3
    assert rank(kb) == 3


def test_kernel_row_vector():
    kb = kernel_basis(QMatrix.from_dense([[1, -1]]))
    assert kb.cols == 1
    assert kb.entry(0, 0) == kb.entry(1, 0) == Q(1)


def test_rref_canonical():
    m = QMatrix.from_dense([[2, 4, 2], [1, 2, 3]])
    pivots, rows = rref(m)
    assert pivots == [0, 2]
    assert rows[0] == {0: Q(1), 1: Q(2)}
    assert rows[1] == {2: Q(1)}


def test_image_pivot_cols():
    m = QMatrix.from_dense([[1, 2, 0], [2, 4, 1]])
    assert image_pivot_cols(m) == [0, 2]
    img = image_basis(m)
    assert img.cols == 2


def test_solve_in_span_roundtrip():
    basis = QMatrix.from_dense([[1, 0], [0, 1], [1, 1]])
    target = QMatrix.from_dense([[3], [4], [7]])
    x = solve_in_span(basis, target)
    assert (basis @ x) == target


def test_solve_in_span_rejects_outside():
    basis = QMatrix.from_dense([[1], [0]])
    target = QMatrix.from_dense([[0], [1]])
    with pytest.raises(ValueError):
        solve_in_span(basis, target)


def test_solve_general_inconsistent():
    m = QMatrix.from_dense([[1], [1]])
    rhs = QMatrix.from_dense([[1], [2]])
    assert solve_general(m, rhs) is None


def test_solve_general_particular():
    m = QMatrix.from_dense([[1, 1]])
    rhs = QMatrix.from_dense([[5]])
    x = solve_general(m, rhs)
    assert (m @ x) == rhs


def test_block_matrix_and_diag():
    a = QMatrix.identity(2)
    b = QMatrix.from_dense([[3]])
    d = block_diag([a, b])
    assert d.rows == d.cols == 3
    assert d.entry(2, 2) == Q(3)
    m = block_matrix({(0, 1): QMatrix.from_dense([[1], [2]])}, [2, 1], [1, 1])
    assert m.entry(0, 1) == Q(1)
    assert m.entry(1, 1) == Q(2)


def _copy(m):
    return m.select_columns(range(m.cols))


def test_block_matrix_shares_only_a_lone_top_block():
    top = QMatrix.from_dense([[1, 0], [2, 3]])
    below = QMatrix.from_dense([[5, 0]])
    half = QMatrix.from_dense([[Fraction(1, 2)], [0]])
    snapshots = [_copy(m) for m in (top, below, half)]
    # block column 0 holds top and below, column 1 top alone but over 1,
    # below the lcm 2 of the denominators, column 2 half alone over 2, and
    # column 3 below alone at row offset 2
    m = block_matrix(
        {(0, 0): top, (1, 0): below, (0, 1): top, (0, 2): half, (1, 3): below},
        [2, 1], [2, 2, 1, 2],
    )
    assert m.den == 2
    assert all(m._cols[j] is not top._cols[j] for j in range(2))
    assert all(m._cols[2 + j] is not top._cols[j] for j in range(2))
    assert m._cols[4] is half._cols[0]
    assert all(m._cols[5 + j] is not below._cols[j] for j in range(2))
    assert [top, below, half] == snapshots
    assert dense(m) == [
        [1, 0, 1, 0, Fraction(1, 2), 0, 0],
        [2, 3, 2, 3, 0, 0, 0],
        [5, 0, 0, 0, 0, 5, 0],
    ]
    # over the common denominator 1: top is copied where below shares its
    # block column, and shared where it is alone
    m = block_matrix({(0, 0): top, (1, 0): below, (0, 1): top}, [2, 1], [2, 2])
    assert all(m._cols[j] is not top._cols[j] for j in range(2))
    assert all(m._cols[2 + j] is top._cols[j] for j in range(2))
    assert [top, below] == snapshots[:2]
    assert dense(m) == [[1, 0, 1, 0], [2, 3, 2, 3], [5, 0, 0, 0]]


def test_computed_row_indices_are_one_int_per_row():
    """kron, shift_rows and a block that block_matrix copies compute row
    indices, and take each key from one row table.  Past 256 rows CPython
    no longer shares small ints, so a key computed per entry would hold
    one int object per entry; ``@`` keys by its left factor."""
    ones = QMatrix.from_dense([[1] * 20] * 20)
    k = kron(QMatrix.identity(20), ones)
    assert k.rows == 400 and one_int_per_row(k) and one_int_per_row(k @ k)
    wide = QMatrix.from_dense([[1, 2, 3]] * 400)
    assert one_int_per_row(wide.shift_rows(-50, 400))
    # both blocks of block row 1 are copied to row offset 300, keyed by
    # one table
    low = QMatrix.from_dense([[1, 2], [0, 3], [4, 0]])
    m = block_matrix({(1, 0): low, (1, 1): low}, [300, 3], [2, 2])
    assert dense(m)[300:] == [[1, 2, 1, 2], [0, 3, 0, 3], [4, 0, 4, 0]] and one_int_per_row(m)


def test_matmul_and_transpose():
    a = QMatrix.from_dense([[1, 2], [3, 4]])
    b = QMatrix.from_dense([[0, 1], [1, 0]])
    assert (a @ b) == QMatrix.from_dense([[2, 1], [4, 3]])
    assert a.transpose().transpose() == a


def test_rational_strings():
    assert str(parse_q("3/4")) == "3/4"
    assert str(parse_q("-6/8")) == "-3/4"
    assert str(parse_q("5")) == "5"
    with pytest.raises(ValueError):
        parse_q("1/0")
    with pytest.raises(ValueError):
        parse_q("a/b")


@pytest.mark.parametrize("text", ["1e3", "0.5", "1_000", "1e10000000"])
def test_parse_q_accepts_only_p_over_q(text):
    """Decimals, exponents and underscores are refused before Fraction sees
    them; an unbounded exponent would build a huge integer."""
    with pytest.raises(ValueError):
        parse_q(text)


small_entries = st.integers(min_value=-4, max_value=4)
rational_entries = st.one_of(
    st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=9)
)
large_entries = st.one_of(st.just(0), st.integers(min_value=-10**12, max_value=10**12))
nonzero_entries = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.builds(Fraction, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)),
    st.integers(min_value=1, max_value=10**12),
).flatmap(lambda v: st.sampled_from([v, -v]))

def dense(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


@st.composite
def matrices(draw, max_dim=6, entries=small_entries):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return QMatrix.from_dense(data, rows, cols)


@st.composite
def structured_matrices(draw, max_dim=30):
    """Sparse matrices shaped like the library's differentials.

    Columns are single entries (pendant columns, and often pendant rows),
    short random columns, or rational multiples of earlier columns
    (duplicates when the multiple is 1), so the elimination meets zero
    fill-in pivots, cancellation and columns with a common content.
    """
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    row = st.integers(min_value=0, max_value=rows - 1)
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["pendant", "sparse", "multiple"]))
        if kind == "multiple" and cols:
            src = draw(st.sampled_from(cols))
            k = draw(st.sampled_from([1, -1]) | nonzero_entries)
            cols.append({r: k * v for r, v in src.items()})
        elif kind == "pendant":
            cols.append({draw(row): draw(nonzero_entries)})
        else:
            cols.append(draw(st.dictionaries(row, nonzero_entries, max_size=4)))
    return QMatrix.from_columns(rows, cols)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    assert rank(m) == m.cols - kernel_basis(m).cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilated(m):
    kb = kernel_basis(m)
    assert (m @ kb).is_zero()
    if kb.cols:
        assert rank(kb) == kb.cols


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=5))
def test_rank_matches_dense_oracle(m):
    assert rank(m) == dense_rank(dense(m))


@settings(max_examples=60, deadline=None)
@given(matrices(entries=rational_entries))
def test_rank_rational_entries_match_dense_oracle(m):
    assert rank(m) == dense_rank(dense(m))


@settings(max_examples=60, deadline=None)
@given(matrices(entries=large_entries))
def test_rank_large_integers_match_dense_oracle(m):
    assert rank(m) == dense_rank(dense(m))


@settings(max_examples=40, deadline=None)
@given(structured_matrices())
def test_rank_structured_sparse_match_dense_oracle(m):
    assert rank(m) == dense_rank(dense(m))


@settings(max_examples=30, deadline=None)
@given(structured_matrices())
def test_rank_leaves_input_unchanged(m):
    before = [(j, r, type(v), v) for j in range(m.cols) for r, v in m.column(j).items()]
    rank(m)
    assert [(j, r, type(v), v) for j in range(m.cols) for r, v in m.column(j).items()] == before


def rows_deleted(m, skip):
    """The dense matrix of m with the rows in skip deleted."""
    return [row for i, row in enumerate(dense(m)) if i not in skip]


def row_subsets(m):
    return st.sets(st.integers(min_value=0, max_value=m.rows - 1))


@settings(max_examples=60, deadline=None)
@given(structured_matrices(), st.data())
def test_rank_skip_rows_is_rank_with_rows_deleted(m, data):
    skip = data.draw(row_subsets(m))
    kept = rows_deleted(m, skip)
    assert rank(m, skip_rows=skip) == rank(QMatrix.from_dense(kept, len(kept), m.cols))
    assert rank(m, skip_rows=skip) == dense_rank(kept)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(max_dim=5), structured_matrices(max_dim=12)), st.data())
def test_rank_pivot_cols_independent_and_span_image(m, data):
    """The columns rank pivots on are independent and as many as the rank,
    so they span the image: the same span as image_pivot_cols, and with rows
    skipped, the image of the matrix less those rows."""
    skip = data.draw(row_subsets(m))
    kept = rows_deleted(m, skip)
    for rows, skip_rows in ((dense(m), None), (kept, skip)):
        pivots = []
        rk = rank(m, skip_rows=skip_rows, pivot_cols=pivots)
        assert len(set(pivots)) == len(pivots) == rk == dense_rank(rows)
        assert dense_rank([[row[j] for j in pivots] for row in rows]) == rk
    pivots = []
    rank(m, pivot_cols=pivots)
    both = m.select_columns(pivots).hstack(image_basis(m))
    assert dense_rank(dense(both)) == rank(m)


@settings(max_examples=30, deadline=None)
@given(structured_matrices(), st.data())
def test_rank_skip_rows_leaves_input_unchanged(m, data):
    skip = data.draw(row_subsets(m))
    before = entries_of(m), [dict(c) for c in m._cols], m.den
    rank(m, skip_rows=skip, pivot_cols=[])
    assert (entries_of(m), [dict(c) for c in m._cols], m.den) == before


@st.composite
def wide_matrices(draw, max_rows=8):
    """Sparse matrices with at least four times as many columns as rows, so
    rank reads them in k >= 2 stride chunks (k = cols // (2 * live rows)).

    "full" matrices usually reach full row rank in some chunk, the
    certified early exit.  "deficient" ones never can: row 0 is the sum of
    the other rows, some rows may be zero, and columns repeat earlier ones,
    so every chunk is read, each later column is tested against the
    annihilators of the pivots before it, and those it meets are reduced
    by those pivots.
    """
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=4 * rows, max_value=8 * rows + 4))
    kind = draw(st.sampled_from(["full", "deficient"]))
    used = draw(st.integers(min_value=0, max_value=rows - 1)) if kind == "deficient" else rows
    row = st.integers(min_value=0, max_value=max(used - 1, 0))
    cols = []
    for _ in range(ncols):
        shape = draw(st.sampled_from(["pendant", "sparse", "multiple", "zero"]))
        if shape == "multiple" and cols:
            src = draw(st.sampled_from(cols))
            k = draw(st.sampled_from([1, -1]) | nonzero_entries)
            cols.append({r: k * v for r, v in src.items()})
        elif shape == "zero" or not used:
            cols.append({})
        elif shape == "pendant":
            cols.append({draw(row): draw(nonzero_entries)})
        else:
            cols.append(draw(st.dictionaries(row, nonzero_entries, max_size=4)))
    if kind == "deficient":
        # shift rows down one and make row 0 their sum: rank < live rows
        cols = [{r + 1: v for r, v in c.items() if r + 1 < rows} for c in cols]
        for c in cols:
            total = sum(c.values())
            if total:
                c[0] = total
    return QMatrix.from_columns(rows, cols)


@settings(max_examples=60, deadline=None)
@given(wide_matrices(), st.data())
def test_rank_in_stride_chunks_matches_dense_oracle(m, data):
    """On wide matrices, with and without skipped rows: the rank is the
    dense oracle's, the pivot columns are independent and span the image,
    a second call gives the same pivots, and the input is unchanged."""
    skip = data.draw(row_subsets(m))
    kept = rows_deleted(m, skip)
    before = entries_of(m), [dict(c) for c in m._cols], m.den
    for rows, skip_rows in ((dense(m), None), (kept, skip)):
        pivots, again = [], []
        rk = rank(m, skip_rows=skip_rows, pivot_cols=pivots)
        assert rk == dense_rank(rows)
        assert len(set(pivots)) == len(pivots) == rk
        assert dense_rank([[row[j] for j in pivots] for row in rows]) == rk
        assert rank(m, skip_rows=skip_rows, pivot_cols=again) == rk
        assert again == pivots
    assert (entries_of(m), [dict(c) for c in m._cols], m.den) == before


def test_rank_certificate_closes_in_first_chunk():
    """Two live rows and eight columns: k = 2.  Chunk 0 (the even columns)
    already has rank 2, so no odd column is pivoted on."""
    m = QMatrix.from_columns(2, [{0: 1}, {0: 1, 1: 1}, {1: 2}, {}, {0: 1}, {1: 1}, {}, {0: 3}])
    pivots = []
    assert rank(m, pivot_cols=pivots) == 2
    assert sorted(pivots) == [0, 2]


def test_rank_later_chunk_reduced_by_earlier_pivots():
    """Chunk 0 (even columns) spans only e0; the odd columns e0 + e1 are
    reduced by its pivot to e1, which closes the certificate in chunk 1."""
    m = QMatrix.from_columns(2, [{0: 2}, {0: 1, 1: 1}] * 4)
    pivots = []
    assert rank(m, pivot_cols=pivots) == 2
    assert pivots[0] % 2 == 0 and pivots[1] % 2 == 1


def test_rank_certificate_never_closes():
    """Row 0 equals row 1 on every column: two live rows, rank 1, so the
    certificate never closes and every later chunk is tested against the
    one annihilator of chunk 0; the rows left out by skip_rows leave rank 1."""
    m = QMatrix.from_columns(3, [{0: j % 3 + 1, 1: j % 3 + 1} for j in range(12)])
    pivots = []
    assert rank(m, pivot_cols=pivots) == 1
    assert rank(m, skip_rows={0}) == rank(m, skip_rows={1}) == 1
    assert rank(m, skip_rows={0, 1}) == 0


@settings(max_examples=60, deadline=None)
@given(wide_matrices(), st.data())
def test_rank_pivots_are_the_reference_algorithms(m, data):
    """Annihilators and length buckets change no pivot: with and without
    skipped rows, rank returns the (rank, pivot columns) of the heap and
    reduce algorithm it replaced."""
    skip = data.draw(row_subsets(m))
    for skip_rows in (None, skip):
        pivots = []
        rk = rank(m, skip_rows=skip_rows, pivot_cols=pivots)
        assert (rk, pivots) == reference_rank(m, skip_rows)


def _reduce_calls(monkeypatch):
    """The columns sparse._reduce is called on, from now on."""
    calls = []
    reduce = sparse._reduce

    def counted(col, *log):
        calls.append(dict(col))
        return reduce(col, *log)

    monkeypatch.setattr(sparse, "_reduce", counted)
    return calls


def _spanned_chunks(odd):
    """Three live rows, twelve columns (k = 2): the even columns a*u + b*v
    for u = (1, 0, 1) and v = (0, 1, 2) span a plane, one short of the
    bound, whose one annihilator is (1, 2, -1); the odd columns are odd."""
    u, v = {0: 1, 2: 1}, {1: 1, 2: 2}
    even = [u, v, {0: 2, 1: -1}, {0: 3, 2: 3}, {1: -2, 2: -4}, {0: 1, 1: 1, 2: 3}]
    return QMatrix.from_columns(3, [c for pair in zip(even, odd) for c in pair])


def test_rank_chunk_in_the_span_is_not_reduced(monkeypatch):
    """Chunk 0 is one short and every odd column lies in its span: its
    annihilator kills them, so the rank is 2, every pivot is even and no
    odd column is copied or reduced."""
    odd = [{0: 1, 2: 1}, {0: -1, 1: 3, 2: 5}, {}, {1: 2, 2: 4}, {0: 4, 2: 4}, {0: 2, 1: 2, 2: 6}]
    m = _spanned_chunks(odd)
    calls = _reduce_calls(monkeypatch)
    pivots = []
    assert rank(m, pivot_cols=pivots) == 2 == dense_rank(dense(m))
    assert all(j % 2 == 0 for j in pivots)
    assert calls == []
    assert (2, pivots) == reference_rank(m)


def test_rank_chunk_leaving_the_span_is_reduced(monkeypatch):
    """As above, but odd column 7 = e_2 leaves the span: it alone is
    reduced by the pivots of chunk 0, and its pivot closes the bound."""
    odd = [{0: 1, 2: 1}, {0: -1, 1: 3, 2: 5}, {}, {2: 1}, {0: 4, 2: 4}, {0: 2, 1: 2, 2: 6}]
    m = _spanned_chunks(odd)
    calls = _reduce_calls(monkeypatch)
    pivots = []
    assert rank(m, pivot_cols=pivots) == 3 == dense_rank(dense(m))
    assert [j for j in pivots if j % 2] == [7]
    assert calls == [{2: 1}]
    assert (3, pivots) == reference_rank(m)


@settings(max_examples=60, deadline=None)
@given(st.one_of(structured_matrices(), wide_matrices()), st.data())
def test_annihilators_kill_every_logged_column(m, data):
    """Log the pivots of two chunks as rank does (the second reduced by the
    first): there is one annihilator per live row f left free, an integer
    vector that is a positive multiple of e_f on the free rows, and each
    kills every logged column and every input column exactly; ``at`` lists
    each annihilator at its nonzero rows."""
    split = data.draw(st.integers(min_value=0, max_value=m.cols))
    log, log_at = [], {}
    for part in (m._cols[:split], m._cols[split:]):
        cols = [_primitive(c) for c in part]
        cols = [_reduce(c, log, log_at) if c and log_at else c for c in cols]
        _eliminate(cols, log)
        log_at = {r: t for t, (r, _, _) in enumerate(log)}
    live = set().union(*m._cols)
    free = sorted(live - set(log_at))
    nulls, at = _annihilators(log, free)
    assert len(nulls) == len(free) == len(live) - dense_rank(dense(m))
    for f, y in zip(free, nulls):
        assert {r: v for r, v in y.items() if r not in log_at} == {f: y[f]} and y[f] > 0
        assert all(isinstance(v, int) and v for v in y.values())
        for r, p, rest in log:
            assert y.get(r, 0) * p + sum(y.get(rr, 0) * v for rr, v in rest) == 0
        for col in m._cols:
            assert sum(y.get(r, 0) * v for r, v in col.items()) == 0
    assert {r: sorted(ns) for r, ns in at.items()} == {
        r: [n for n, y in enumerate(nulls) if r in y] for r in set().union(*nulls)
    }


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=5))
def test_image_pivots_independent(m):
    cols = image_pivot_cols(m)
    sub = m.select_columns(cols)
    assert rank(sub) == len(cols) == rank(m)


def entries_of(m):
    return [(j, r, type(v), v) for j in range(m.cols) for r, v in m.column(j).items()]


def assert_rref_matches_dense_oracle(m):
    """rref: the oracle's pivots and rows, as QONE-pivoted Q entries."""
    want_pivots, want_rows = dense_rref(dense(m))
    want_rows = [{c: v for c, v in enumerate(row) if v} for row in want_rows]
    before = entries_of(m)
    pivots, rows = rref(m)
    assert entries_of(m) == before
    assert pivots == want_pivots
    assert rows == want_rows
    assert all(type(v) is Q for row in rows for v in row.values())
    assert all(row[c] == QONE for c, row in zip(pivots, rows))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_dense_oracle(m):
    assert_rref_matches_dense_oracle(m)


@settings(max_examples=60, deadline=None)
@given(matrices(entries=rational_entries))
def test_rref_rational_entries_match_dense_oracle(m):
    assert_rref_matches_dense_oracle(m)


@settings(max_examples=60, deadline=None)
@given(matrices(entries=large_entries))
def test_rref_large_integers_match_dense_oracle(m):
    assert_rref_matches_dense_oracle(m)


@settings(max_examples=40, deadline=None)
@given(structured_matrices())
def test_rref_structured_sparse_match_dense_oracle(m):
    assert_rref_matches_dense_oracle(m)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), structured_matrices()), st.data())
def test_echelon_rows_of_the_rows_is_echelon(m, data):
    """echelon_rows on a matrix's integer rows, with an empty row and a
    repeated one added (neither changes the row space), is echelon of the
    matrix, and modifies none of them."""
    rows = m.transpose()._cols
    repeat = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    vectors = [{}] + rows + [dict(rows[repeat])]
    before = [dict(v) for v in vectors]
    assert echelon_rows(vectors, m.cols) == echelon(m)
    assert vectors == before


@pytest.mark.parametrize("vectors, width", [
    ([{0: 1, 1: 1}, {0: 1, 1: -1}], 2),
    ([{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}, {1: 1, 2: 5}], 3),
    ([{0: -1, 2: 1, 3: 1}, {0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}], 4),
])
def test_echelon_rows_primitive_after_a_clear_that_leaves_content(vectors, width):
    """A clear under a unit pivot divides out no content: {0: 1, 1: 1}
    less {0: 1, 1: -1} leaves {1: 2}, which becomes a pivot row (in the
    second case {2: 8}).  Every row still comes out primitive, positive in
    its pivot and the dense RREF row times that pivot."""
    pivots, rows = echelon_rows(vectors, width)
    want_pivots, want_rows = dense_rref(
        [[Q(v.get(c, 0)) for c in range(width)] for v in vectors]
    )
    assert pivots == want_pivots
    for c, r, want in zip(pivots, rows, want_rows):
        assert gcd(*r.values()) == 1 and r[c] > 0
        assert {k: Q(v, r[c]) for k, v in r.items()} == {k: v for k, v in enumerate(want) if v}


@st.composite
def matrix_pairs(draw, entries, max_dim=6):
    """(a, b) with a.cols == b.rows."""
    a = draw(matrices(max_dim=max_dim, entries=entries))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=a.cols, max_size=a.cols
    ))
    return a, QMatrix.from_dense(data, a.cols, cols)


def assert_matmul_matches_dense_oracle(a, b):
    """a @ b: the oracle's product, Q entries, no stored zeros."""
    want = QMatrix.from_dense(mat_mul(dense(a), dense(b)), a.rows, b.cols)
    before = entries_of(a), entries_of(b)
    prod = a @ b
    assert (entries_of(a), entries_of(b)) == before
    assert prod == want
    assert all(type(v) is Q and v for _, _, _, v in entries_of(prod))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    matrix_pairs(small_entries), matrix_pairs(rational_entries), matrix_pairs(large_entries)
))
def test_matmul_matches_dense_oracle(pair):
    assert_matmul_matches_dense_oracle(*pair)


@settings(max_examples=40, deadline=None)
@given(structured_matrices(), st.data())
def test_matmul_cancellation_stores_no_zeros(m, data):
    """m @ kernel and m @ (columns and their negatives) cancel to exact zeros."""
    assert_matmul_matches_dense_oracle(m, kernel_basis(m))
    j = data.draw(st.integers(min_value=0, max_value=m.cols - 1))
    col = {j: Q(data.draw(nonzero_entries))}
    pair = QMatrix.from_columns(m.cols, [col, {r: -v for r, v in col.items()}])
    cancel = QMatrix.from_columns(2, [{0: QONE, 1: QONE}])
    assert_matmul_matches_dense_oracle(m @ pair, cancel)
    assert (m @ pair @ cancel).is_zero()


def _scaled(m, c):
    return QMatrix.from_columns(m.rows, [{r: c * v for r, v in m.column(j).items()}
                                         for j in range(m.cols)])


def _first_nonzero(m):
    return next((j for j, c in enumerate(m._cols) if c), None)


def _shaped(draw, rows, cols):
    return QMatrix.from_dense(draw(st.lists(
        st.lists(rational_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )), rows, cols)


@st.composite
def product_sums(draw):
    """Terms (c, X, Y) of one shape with rational entries; some are built to
    cancel: a term is followed by its negative, stated with X doubled and Y
    halved, and a single column may then be disturbed."""
    rows, mid, cols = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        c = draw(st.sampled_from([1, -1, 2, -3]))
        X, Y = _shaped(draw, rows, mid), _shaped(draw, mid, cols)
        terms.append((c, X, Y))
        if draw(st.booleans()):
            terms.append((-c, _scaled(X, 2), _scaled(Y, Fraction(1, 2))))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=cols - 1))
        e = QMatrix.from_columns(mid, [{0: Fraction(1, 3)} if k == j else {} for k in range(cols)])
        terms.append((1, _shaped(draw, rows, mid), e))
    return terms


def _first_nonzero_of_sum(terms):
    """(j, column j) of the materialized sum of c * X @ Y, zeros dropped."""
    total = _scaled(terms[0][1] @ terms[0][2], terms[0][0])
    for c, X, Y in terms[1:]:
        total = total + _scaled(X @ Y, c)
    j = _first_nonzero(total)
    return None if j is None else (j, total.column(j))


@given(product_sums())
def test_first_nonzero_column_matches_materialized_sum(terms):
    # the single-term branch, and the sum whose terms may cancel
    for part in (terms[:1], terms):
        found = first_nonzero_column(part)
        assert found == _first_nonzero_of_sum(part)
        if found is not None:
            assert 0 not in found[1].values() and list(found[1]) == sorted(found[1])
    # a sum and its negative cancel in every column
    assert first_nonzero_column(terms + [(-c, X, Y) for c, X, Y in terms]) is None


def _outcome(found):
    """A zero test's outcome with its column's row order made visible."""
    return None if found is None else (found[0], list(found[1].items()))


wide_entries = st.one_of(
    st.integers(min_value=-2**20, max_value=2**20),
    st.fractions(min_value=-2**20, max_value=2**20, max_denominator=12),
)


def _sparse_columns(draw, rows, cols, size):
    row = st.integers(min_value=0, max_value=rows - 1)
    return QMatrix.from_columns(rows, [
        draw(st.dictionaries(row, wide_entries, max_size=size)) for _ in range(cols)
    ])


@st.composite
def wide_sums(draw):
    """Terms (c, X, Y) of one shape that reach both paths of the zero test:
    Y is wide and sparse, past the column cutoff, or narrow, and X short or
    taller than the width budget allows; entries run up to 2^20 with mixed
    denominators.  Terms cancel as in product_sums, and one column may then
    be disturbed."""
    rows = draw(st.sampled_from(
        [1, 3, 8, sparse._PACK_MAX_BITS // 2 + 1, sparse._PACK_MAX_BITS + 1]
    ))
    mid = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.one_of(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=sparse._PACK_MIN_COLS, max_value=sparse._PACK_MIN_COLS + 24),
    ))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        c = draw(st.sampled_from([1, -1, 2, -3]))
        X, Y = _sparse_columns(draw, rows, mid, 3), _sparse_columns(draw, mid, cols, 2)
        terms.append((c, X, Y))
        if draw(st.booleans()):
            terms.append((-c, _scaled(X, 2), _scaled(Y, Fraction(1, 2))))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=cols - 1))
        e = QMatrix.from_columns(mid, [{0: Fraction(1, 3)} if k == j else {} for k in range(cols)])
        terms.append((1, _sparse_columns(draw, rows, mid, 3), e))
    return terms


@settings(deadline=None)
@given(wide_sums())
def test_first_nonzero_column_matches_reference_on_both_paths(terms):
    for part in (terms[:1], terms):
        assert _outcome(first_nonzero_column(part)) == _outcome(
            reference_first_nonzero_column(part)
        )
    assert first_nonzero_column(terms + [(-c, X, Y) for c, X, Y in terms]) is None


def _wide(cols, j, column, rows):
    """The rows x cols matrix whose only nonzero column is column, at j."""
    return QMatrix.from_columns(rows, [column if k == j else {} for k in range(cols)])


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_zero_test_width_is_sharp(sign):
    """Slot 0 of the only nonzero column is exactly +-M, the entry bound,
    and slot 1 is -+1: packed one bit narrower than M.bit_length(), the
    column reads as a false zero, and at that width it does not."""
    M, cols, j = 2**7, sparse._PACK_MIN_COLS + 5, sparse._PACK_MIN_COLS + 3
    X = QMatrix.from_columns(2, [{0: sign * M, 1: -sign}])
    terms = [(1, X, _wide(cols, j, {0: 1}, 1))]
    W, parts = sparse._packing(terms, 1)
    assert W == M.bit_length()
    assert sparse._first_nonzero_packed(cols, W - 1, parts) is None
    assert first_nonzero_column(terms) == (j, {0: Q(sign * M), 1: Q(-sign)})
    assert _outcome(first_nonzero_column(terms)) == _outcome(reference_first_nonzero_column(terms))


def test_packed_zero_test_cancels_across_terms():
    """A zero reached as 2 = 1 + 1 across three terms, on the packed path,
    and the first column where a fourth term disturbs it."""
    cols = sparse._PACK_MIN_COLS
    X = QMatrix.from_columns(3, [{0: 1, 2: -1}, {1: 1}])
    Y = QMatrix.from_columns(2, [{k % 2: 1} for k in range(cols)])
    terms = [(1, X, Y), (1, X, Y), (-1, _scaled(X, 2), Y)]
    assert sparse._packing(terms, 1) is not None
    assert first_nonzero_column(terms) is None
    disturbed = terms + [(1, X, _wide(cols, 7, {1: Fraction(1, 2)}, 2))]
    assert first_nonzero_column(disturbed) == (7, {1: Q(1, 2)})
    assert _outcome(first_nonzero_column(disturbed)) == _outcome(
        reference_first_nonzero_column(disturbed)
    )


def test_zero_test_on_empty_and_tall_factors():
    """An empty Y (no columns, or wide with no entries) sums to zero; an X
    past the width budget runs the dict loop and finds the same column."""
    X = QMatrix.from_columns(4, [{0: 1, 3: 2}])
    assert first_nonzero_column([(1, X, QMatrix.zero(1, 0))]) is None
    assert first_nonzero_column([(1, X, QMatrix.zero(1, sparse._PACK_MIN_COLS))]) is None
    rows, cols = sparse._PACK_MAX_BITS + 1, sparse._PACK_MIN_COLS
    tall = QMatrix.from_columns(rows, [{0: 3, rows - 1: -5}])
    terms = [(1, tall, _wide(cols, 11, {0: 1}, 1))]
    assert sparse._packing(terms, 1) is None
    assert first_nonzero_column(terms) == (11, {0: Q(3), rows - 1: Q(-5)})
    assert _outcome(first_nonzero_column(terms)) == _outcome(reference_first_nonzero_column(terms))


@given(matrices(max_dim=4, entries=rational_entries), st.data())
def test_check_dd_zero_names_first_nonzero_column(d1, data):
    """d.d on random pairs, and on pairs d_2 = ker(d_1) @ M, zero but for
    a column that may be disturbed."""
    from thl.complexes import ChainComplexQ
    from thl.errors import ComplexError

    cols = data.draw(st.integers(min_value=1, max_value=4))
    if data.draw(st.booleans()):
        d2 = _shaped(data.draw, d1.cols, cols)
    else:
        kernel = kernel_basis(d1)
        d2 = kernel @ _shaped(data.draw, kernel.cols, cols)
        j = data.draw(st.integers(min_value=0, max_value=cols - 1))
        d2 = d2 + QMatrix.from_columns(d1.cols, [{0: 1} if k == j else {} for k in range(cols)])
    complex_ = ChainComplexQ([d1.rows, d1.cols, d2.cols], [None, d1, d2], check=False)
    j = _first_nonzero(d1 @ d2)
    if j is None:
        complex_.check_dd_zero()
    else:
        with pytest.raises(ComplexError) as err:
            complex_.check_dd_zero()
        assert err.value.basis_label == f"basis index {j}"
        assert err.value.location == "degree 2"
