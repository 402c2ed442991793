"""Sparse exact matrices over Q and the elimination routines behind
ranks, kernels and canonical echelon forms.

Storage is column-major: column j is a dict {row: nonzero rational}.
Matrices are treated as immutable once built; every routine that needs to
mutate works on copies.

The arithmetic of the kernels is over Python integers, the same whichever
rational backend is active: a rational vector is scaled once to an integer
one (``_integer``, ``_primitive``), eliminated fraction-free (cross-multiply
by the pivot, then divide out the content, ``_clear``), and rationals are
made again only for the entries of a result.  Two kernels share this:

* ``rank`` eliminates primitive integer columns.  Pivots come from pendant
  (single-column) rows first, then from the lightest live column, taken
  from a lazy-deletion heap keyed on (column length, column index).  Rank
  is invariant under pivot order, so this is safe, fully deterministic, and
  orders of magnitude faster on the face-map matrices this library
  produces.
* everything that exposes a *basis* (``rref``, ``kernel_basis``,
  ``image_pivot_cols``, quotient presentations) goes through the reduced
  row echelon form, which is canonical -- unique for the row space -- so
  reported bases cannot depend on elimination internals.  ``rref``
  eliminates primitive integer rows and divides each finished row by its
  pivot once.

Products (``@``) accumulate integer products and divide each output entry
by the common denominator once.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rational import Q, QONE


class QMatrix:
    """Sparse matrix over Q, column-major dict-of-dicts."""

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows, cols, cols_data=None, _adopt=False):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        if cols_data is None:
            self._cols = [dict() for _ in range(cols)]
        elif _adopt:
            self._cols = cols_data
        else:
            self._cols = [dict(c) for c in cols_data]

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(rows, cols):
        return QMatrix(rows, cols)

    @staticmethod
    def identity(n):
        return QMatrix(n, n, [{i: QONE} for i in range(n)], _adopt=True)

    @staticmethod
    def from_dense(entries, rows=None, cols=None):
        """Build from a row-major list of lists of ints/rationals."""
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        data = [dict() for _ in range(cols)]
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                if v:
                    data[j][i] = Q(v)
        return QMatrix(rows, cols, data, _adopt=True)

    @staticmethod
    def from_columns(rows, columns):
        """Build from an iterable of {row: value} dicts (values coerced)."""
        data = []
        for col in columns:
            data.append({r: Q(v) for r, v in col.items() if v})
        return QMatrix(rows, len(data), data, _adopt=True)

    # -- accessors ---------------------------------------------------

    def column(self, j):
        return dict(self._cols[j])

    def entry(self, i, j):
        return self._cols[j].get(i, Q(0))

    def nnz(self):
        return sum(len(c) for c in self._cols)

    def is_zero(self):
        return all(not c for c in self._cols)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._cols == other._cols

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        self._shape_check(other)
        data = []
        for a, b in zip(self._cols, other._cols):
            col = dict(a)
            for r, v in b.items():
                nv = col.get(r)
                nv = v if nv is None else nv + v
                if nv:
                    col[r] = nv
                elif r in col:
                    del col[r]
            data.append(col)
        return QMatrix(self.rows, self.cols, data, _adopt=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QMatrix(
            self.rows, self.cols, [{r: -v for r, v in c.items()} for c in self._cols], _adopt=True
        )

    def __matmul__(self, other):
        """Exact product, accumulated over Python integers.

        The columns of ``self`` that ``other`` uses are scaled by the lcm D
        of their denominators, and each column of ``other`` by its own lcm
        d; the integer products are summed and every nonzero entry of the
        result becomes one rational n / (D*d).
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        used = set().union(*other._cols)
        den = lcm(*[int(w.denominator) for k in used for w in self._cols[k].values()])
        mine = {k: _integer(self._cols[k], den) for k in used}
        data = []
        for col in other._cols:
            d = lcm(*[int(v.denominator) for v in col.values()])
            out = {}
            for k, v in _integer(col, d).items():
                for r, w in mine[k].items():
                    out[r] = out.get(r, 0) + v * w
            dd = den * d
            data.append({r: Q(n, dd) for r, n in out.items() if n})
        return QMatrix(self.rows, other.cols, data, _adopt=True)

    def apply(self, vec):
        """Matrix times a sparse vector {index: value} -> sparse vector."""
        out = {}
        for k, v in vec.items():
            for r, w in self._cols[k].items():
                nv = out.get(r)
                nv = v * w if nv is None else nv + v * w
                if nv:
                    out[r] = nv
                elif r in out:
                    del out[r]
        return out

    def transpose(self):
        data = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                data[i][j] = v
        return QMatrix(self.cols, self.rows, data, _adopt=True)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return QMatrix(
            self.rows,
            self.cols + other.cols,
            [dict(c) for c in self._cols] + [dict(c) for c in other._cols],
            _adopt=True,
        )

    def select_columns(self, indices):
        return QMatrix(self.rows, len(indices), [dict(self._cols[j]) for j in indices], _adopt=True)

    def _shape_check(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def block_matrix(blocks, row_dims, col_dims):
    """Assemble from a {(bi, bj): QMatrix} dict of blocks.

    row_dims/col_dims give the block sizes in order; missing blocks are zero.
    """
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    data = [dict() for _ in range(col_off[-1])]
    for (bi, bj), m in blocks.items():
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        ro, co = row_off[bi], col_off[bj]
        for j, col in enumerate(m._cols):
            tgt = data[co + j]
            for i, v in col.items():
                tgt[ro + i] = v
    return QMatrix(row_off[-1], col_off[-1], data, _adopt=True)


def block_diag(mats):
    blocks = {(k, k): m for k, m in enumerate(mats)}
    return block_matrix(blocks, [m.rows for m in mats], [m.cols for m in mats])


# ---------------------------------------------------------------------
# integer views of rational vectors
# ---------------------------------------------------------------------

def _integer(vec, den):
    """The vector times den, a common multiple of its denominators: {key: int}.

    Reads numerator/denominator through int() so that Fraction and mpq
    entries both give Python ints.
    """
    if den == 1:
        return {k: int(v.numerator) for k, v in vec.items()}
    return {k: int(v.numerator) * (den // int(v.denominator)) for k, v in vec.items()}


def _primitive(vec):
    """The vector scaled to a primitive integer vector {key: int}.

    Multiplies by the lcm of the denominators, then divides by the gcd of
    the numerators.
    """
    nums = _integer(vec, lcm(*[int(v.denominator) for v in vec.values()]))
    g = gcd(*nums.values())
    if g != 1:
        nums = {k: n // g for k, n in nums.items()}
    return nums


def _clear(r, prow, c):
    """Clear entry c of the integer row r with the row prow, in place.

    With pivot p = prow[c], entry a = r[c] and g = gcd(a, p), sets
    ``r <- (p/g)*r - (a/g)*prow`` (entry c cancels) and divides r by its
    content, so r stays a primitive integer vector.
    """
    p, a = prow[c], r[c]
    g = gcd(a, p)
    pm, am = p // g, a // g
    if pm < 0:
        pm, am = -pm, -am
    if pm != 1:
        for k in r:
            r[k] *= pm
    for k, v in prow.items():
        nv = r.get(k, 0) - am * v
        if nv:
            r[k] = nv
        else:
            del r[k]
    if r:
        g = gcd(*r.values())
        if g != 1:
            for k in r:
                r[k] //= g


# ---------------------------------------------------------------------
# rank: fraction-free sparse elimination
# ---------------------------------------------------------------------

def rank(matrix):
    """Exact rank over Q; the input is not modified.

    Each column is scaled once to a primitive integer vector and then
    eliminated fraction-free: clearing row r of column ``col`` with pivot
    column ``piv`` (pivot entry p, entry a = col[r], g = gcd(a, p)) sets
    ``col <- (p/g)*col - (a/g)*piv`` and divides the result by its content,
    which keeps the integers small without creating a rational.

    Pivot order: pendant rows (a single live column, so no fill-in) first,
    found through a list of rows whose count dropped to one; otherwise the
    lightest live column, lowest index first, popped from a lazy-deletion
    heap keyed (len(col), j), pivoting on its row that meets the fewest
    columns.  Every live column keeps a heap key no larger than its length
    (a column is pushed again when it shrinks, or when a popped key turns
    out stale), so a popped key that matches is the true minimum.
    Deterministic; the value is independent of pivot order.
    """
    cols = [_primitive(c) if c else None for c in matrix._cols]
    row_cols = {}
    for j, col in enumerate(cols):
        if col:
            for r in col:
                row_cols.setdefault(r, set()).add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapify(heap)
    pendant = [r for r, s in row_cols.items() if len(s) == 1]
    rk = 0

    def eliminate(r, c):
        """Pivot at (r, c): clear row r from the other columns, drop row+col."""
        piv_col = cols[c]
        p = piv_col[r]
        piv_items = [(rr, v) for rr, v in piv_col.items() if rr != r]
        for j in row_cols.pop(r):
            if j == c:
                continue
            col = cols[j]
            n = len(col)
            a = col.pop(r)
            if piv_items:
                g = gcd(a, p)
                pm, am = p // g, a // g
                if pm < 0:
                    pm, am = -pm, -am
                if pm != 1:
                    for rr in col:
                        col[rr] *= pm
                for rr, v in piv_items:
                    nv = col.get(rr)
                    if nv is None:
                        col[rr] = -am * v
                        row_cols[rr].add(j)
                    else:
                        nv -= am * v
                        if nv:
                            col[rr] = nv
                        else:
                            # row rr still meets the pivot column c, and
                            # becomes empty, not pendant, once c is dropped
                            del col[rr]
                            row_cols[rr].discard(j)
                if col:
                    g = gcd(*col.values())
                    if g != 1:
                        for rr in col:
                            col[rr] //= g
            if not col:
                cols[j] = None
            elif len(col) < n:
                heappush(heap, (len(col), j))
        for rr, _ in piv_items:
            s = row_cols[rr]
            s.discard(c)
            if len(s) == 1:
                pendant.append(rr)
            elif not s:
                del row_cols[rr]
        cols[c] = None

    while True:
        while pendant:
            r = pendant.pop()
            s = row_cols.get(r)
            if s is not None and len(s) == 1:
                (j,) = s
                eliminate(r, j)
                rk += 1
        while heap:
            n, j = heappop(heap)
            col = cols[j]
            if col is not None:
                if len(col) == n:
                    break
                heappush(heap, (len(col), j))
        else:
            return rk
        r = min(col, key=lambda r: (len(row_cols[r]), r))
        eliminate(r, j)
        rk += 1


def nullity(matrix):
    return matrix.cols - rank(matrix)


# ---------------------------------------------------------------------
# canonical reduced row echelon form and its consumers
# ---------------------------------------------------------------------

def rref(matrix):
    """Canonical reduced row echelon form; the input is not modified.

    Returns (pivot_cols, rows) where rows is a list of {col: value} dicts,
    one per pivot, with a 1 in its pivot column and zeros in every other
    pivot column.  The RREF is unique for the row space, so the output is
    independent of elimination order.

    The arithmetic is over Python integers: each row is scaled once to a
    primitive integer vector, eliminated forward with ``_clear``, then
    back-substituted from the last pivot, and only the finished rows are
    divided by their pivots into rationals.  Rows are bucketed by their
    leading column, which keeps the pivot search linear in the actual
    reduction work: when column c is reached, every unprocessed row with an
    entry in c has leading column exactly c, and the shortest of them is
    the pivot row.
    """
    buckets = {}
    for j, col in enumerate(matrix._cols):
        for i, v in col.items():
            buckets.setdefault(i, {})[j] = v
    rows_by_lead = {}
    for r in buckets.values():
        rows_by_lead.setdefault(min(r), []).append(_primitive(r))
    pivot_rows = {}   # pivot col -> integer row, ascending pivot col
    for col in range(matrix.cols):
        bucket = rows_by_lead.pop(col, None)
        if not bucket:
            continue
        prow = min(bucket, key=len)
        for r in bucket:
            if r is not prow:
                _clear(r, prow, col)
                if r:
                    rows_by_lead.setdefault(min(r), []).append(r)
        pivot_rows[col] = prow
    # back-substitution: rows after col are final, with zeros in every
    # other pivot column, so clearing them never brings a pivot column back
    pivot_cols = list(pivot_rows)
    for col in reversed(pivot_cols):
        r = pivot_rows[col]
        for c in [c for c in r if c != col and c in pivot_rows]:
            _clear(r, pivot_rows[c], c)
    rows = []
    for col in pivot_cols:
        r = pivot_rows[col]
        p = r[col]
        rows.append({c: Q(v, p) for c, v in r.items()})
    return pivot_cols, rows


def kernel_basis(matrix):
    """Canonical basis of ker(matrix) as the columns of a QMatrix."""
    pivot_cols, rows = rref(matrix)
    pivot_set = set(pivot_cols)
    free = [j for j in range(matrix.cols) if j not in pivot_set]
    data = []
    for f in free:
        vec = {f: QONE}
        for pc, r in zip(pivot_cols, rows):
            v = r.get(f)
            if v:
                vec[pc] = -v
        data.append(vec)
    return QMatrix(matrix.cols, len(free), data, _adopt=True)


def image_pivot_cols(matrix):
    """Indices of the canonical maximal independent subset of columns."""
    pivot_cols, _ = rref(matrix)
    return pivot_cols


def image_basis(matrix):
    """Canonical basis of the column space: the pivot columns themselves."""
    return matrix.select_columns(image_pivot_cols(matrix))


def solve_general(matrix, rhs):
    """A particular solution X of matrix @ X = rhs, or None if inconsistent.

    Free variables are set to zero, so the solution is canonical (it only
    depends on the RREF, which is unique).
    """
    if matrix.rows != rhs.rows:
        raise ValueError("row mismatch in solve_general")
    aug = matrix.hstack(rhs)
    pivot_cols, rows = rref(aug)
    na = matrix.cols
    for pc in pivot_cols:
        if pc >= na:
            return None
    data = []
    for t in range(rhs.cols):
        col = {}
        for pc, r in zip(pivot_cols, rows):
            v = r.get(na + t)
            if v:
                col[pc] = v
        data.append(col)
    return QMatrix(na, rhs.cols, data, _adopt=True)


def solve_in_span(basis, targets):
    """Coordinates of each target column in span(basis columns).

    basis must have independent columns.  Returns a (basis.cols x
    targets.cols) coordinate matrix X with basis @ X == targets, or raises
    ValueError if some target leaves the span.
    """
    if basis.rows != targets.rows:
        raise ValueError("row mismatch in solve_in_span")
    aug = basis.hstack(targets)
    pivot_cols, rows = rref(aug)
    nb = basis.cols
    for pc in pivot_cols:
        if pc >= nb:
            raise ValueError("target column outside span")
    if len(pivot_cols) != nb:
        raise ValueError("basis columns are dependent")
    data = []
    for t in range(targets.cols):
        col = {}
        for k, (pc, r) in enumerate(zip(pivot_cols, rows)):
            v = r.get(nb + t)
            if v:
                col[k] = v
        data.append(col)
    return QMatrix(nb, targets.cols, data, _adopt=True)
