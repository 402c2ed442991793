"""Integer storage of QMatrix, checked operation by operation.

A QMatrix keeps integer columns over one denominator.  Every operation is
run on random rational matrices -- small integers, non-integer entries,
entries of size 10^12, and sums built to cancel, some of them to zero --
and compared with the dense Fraction arithmetic of oracles.py.  Every result must be stored
canonically: a positive denominator in lowest terms against the entries,
no stored zeros, and ``==`` agreeing with dense equality.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from thl.rational import Q
from thl.sparse import (
    QMatrix,
    block_matrix,
    image_basis,
    kernel_basis,
    rank,
    solve_general,
    solve_in_span,
)

import oracles

values = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)),
    st.integers(min_value=-10**12, max_value=10**12),
    st.builds(
        Fraction,
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
    ),
)
# the difference of a cancelling pair: mostly zero, never finer than 1/2
differences = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(min_value=-2, max_value=2), st.just(Fraction(1, 2))
)
dims = st.integers(min_value=0, max_value=4)


@st.composite
def specs(draw, rows=None, cols=None, entries=values):
    """(dense entries, rows, cols) of a random matrix."""
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    return [[Fraction(draw(entries)) for _ in range(cols)] for _ in range(rows)], rows, cols


@st.composite
def pairs(draw):
    """Two specs of one shape, the second D - A for the first A and a mostly
    zero D, so that their sum cancels, often to zero or to integers."""
    a, rows, cols = draw(specs())
    d, _, _ = draw(specs(rows, cols, differences))
    b = oracles.mat_sub(d, a)
    if draw(st.booleans()):
        a, b = b, a
    return (a, rows, cols), (b, rows, cols)


def build(spec):
    """The QMatrix of a (dense, rows, cols) spec."""
    return QMatrix.from_dense(*spec)


def to_dense(m):
    """m as dense Fractions, read through the public accessor."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for j in range(m.cols):
        for i, v in m.column(j).items():
            assert type(v) is Q
            out[i][j] = v
    return out


def assert_canonical(m):
    assert type(m.den) is int and m.den >= 1
    assert len(m._cols) == m.cols
    entries = [v for c in m._cols for v in c.values()]
    assert all(type(v) is int and v != 0 for v in entries), "stored zero or non-int"
    assert all(0 <= r < m.rows for c in m._cols for r in c)
    assert gcd(m.den, *entries) == 1, "denominator not in lowest terms"


def check(m, want):
    assert_canonical(m)
    assert to_dense(m) == want


def _sum(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@settings(max_examples=80, deadline=None)
@given(pairs())
def test_add_sub_neg_and_eq(pair):
    (a, rows, cols), (b, _, _) = pair
    ma, mb = build(pair[0]), build(pair[1])
    check(ma, a)
    check(mb, b)
    check(ma + mb, _sum(a, b))
    check(ma - mb, oracles.mat_sub(a, b))
    check(-ma, [[-x for x in row] for row in a])
    assert (ma == mb) == (a == b)
    # the same matrix reached by another route is == (structural storage)
    assert (ma + mb) - mb == ma
    assert (ma - ma).is_zero() and (ma - ma).den == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda k: st.tuples(specs(cols=k), specs(rows=k))
))
def test_matmul(pair):
    (a, rows, inner), (b, _, cols) = pair
    want = oracles.mat_mul(a, b) if rows and inner and cols else oracles.zero_mat(rows, cols)
    check(build(pair[0]) @ build(pair[1]), want)


@settings(max_examples=80, deadline=None)
@given(specs(), specs(), st.data())
def test_structure_ops(spec, other, data):
    a, rows, cols = spec
    b, rows_b, cols_b = other
    m = build(spec)
    check(m.transpose(), [[a[i][j] for i in range(rows)] for j in range(cols)])
    pick = data.draw(st.lists(st.integers(0, cols - 1), max_size=5)) if cols else []
    check(m.select_columns(pick), [[row[j] for j in pick] for row in a])
    shift = data.draw(st.integers(-4, 4))
    height = data.draw(dims)
    check(
        m.shift_rows(shift, height),
        [
            a[i - shift] if 0 <= i - shift < rows else [Fraction(0)] * cols
            for i in range(height)
        ],
    )
    o = build(other)
    if rows == rows_b:
        check(m.hstack(o), [ra + rb for ra, rb in zip(a, b)])
    whole = block_matrix({(0, 0): m, (1, 1): o}, [rows, rows_b], [cols, cols_b])
    check(
        whole,
        [ra + [Fraction(0)] * cols_b for ra in a] + [[Fraction(0)] * cols + rb for rb in b],
    )
    vec = {j: Fraction(1, j + 2) for j in range(cols)}
    got = m.apply(vec)
    want = {i: sum((a[i][j] * Fraction(1, j + 2) for j in range(cols)), Fraction(0))
            for i in range(rows)}
    assert got == {i: v for i, v in want.items() if v}
    assert all(m.entry(i, j) == a[i][j] for i in range(rows) for j in range(cols))


@settings(max_examples=60, deadline=None)
@given(specs(), st.data())
def test_bases_and_solvers(spec, data):
    a, rows, cols = spec
    m = build(spec)
    rk = oracles.dense_rank(a) if rows and cols else 0
    assert rank(m) == rk
    kb = kernel_basis(m)
    assert_canonical(kb)
    assert kb.cols == cols - rk and (m @ kb).is_zero() and rank(kb) == kb.cols
    im = image_basis(m)
    assert_canonical(im)
    assert im.cols == rank(im) == rk
    x = build(data.draw(specs(rows=cols)))
    rhs = m @ x
    sol = solve_general(m, rhs)
    assert_canonical(sol)
    assert m @ sol == rhs
    coords = solve_in_span(im, rhs)
    assert_canonical(coords)
    assert im @ coords == rhs
