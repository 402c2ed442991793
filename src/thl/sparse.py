"""Sparse exact matrices over Q and the elimination routines behind
ranks, kernels and canonical echelon forms.

Storage is column-major integers over one denominator: column j is a dict
{row: nonzero int} and ``den`` is a positive int, so entry (i, j) is
``_cols[j][i] / den``.  The denominator is in lowest terms against the
entries (gcd(den, every entry) == 1, so den == 1 for an integral or a zero
matrix), which makes the storage canonical and ``==`` structural.
Matrices are treated as immutable once built; every routine that needs to
mutate works on copies, so matrices may share column dicts
(``block_matrix`` lends a block's columns to the result).

Every kernel works on these integers.  The scalar type Q (``Fraction``)
appears only at the boundary: the constructor, ``from_dense`` and
``from_columns`` take rational values, ``column``, ``entry`` and ``apply``
give them back, and so do the rows of ``rref``.

* One loop sums products: ``_sum_of_products`` yields, column by column,
  a sum of c * X @ Y over the lcm of the terms' denominators.  ``@``
  collects every column (``apply`` is a one-column product), and
  ``first_nonzero_column``, the one exact zero test, stops at the first
  nonzero one and builds no product.  With ``kron`` this is every product
  and identity of an algebra (``algebra.Algebra.mu``).  ``+`` and ``-``
  scale by an lcm only when the denominators differ.  A result is divided
  by its common factor only when its denominator is not 1.
* The other loops that add into columns are not sums of products: ``_combine``
  adds two matrices; ``quotient.QuotientPresentation.project`` applies a
  projection it never builds; ``quotient.coinvariant_relations`` subtracts
  operators from the identity; ``algebra.tensor_operator`` and
  ``crossed.GJOperators._group_blocks`` scatter images into the columns
  they build; the elimination kernels update columns in place.
* ``rank`` eliminates primitive integer columns fraction-free (cross-multiply
  by the pivot, then divide out the content).  Each pivot is in the
  lightest live column, taken from a lazy-deletion heap keyed on (column
  length, column index).  Rank is invariant under pivot order, so this is
  safe, fully deterministic, and orders of magnitude faster on the
  face-map matrices this library produces.  It can leave out a set of rows
  and report the columns it pivoted on, which is what compressed homology
  ranks need: when d_n d_{n+1} = 0, deleting the rows of d_{n+1} at the
  pivot columns of d_n keeps its rank (see ``complexes.HomologyResult``).
* ``rank`` stops as soon as its value is certified.  The number of nonzero
  rows left is an upper bound, and the rank of any subset of the columns a
  lower bound; the columns are read in stride chunks (chunk i of k is every
  column j = i mod k, k = cols // (2 * bound)), and the rank is returned
  once the columns read reach the bound.  A chunk that ends short is
  followed by the next, its columns first reduced by the pivots logged so
  far, in log order.  This is the full-rank case of rank certificates
  (Kaltofen, Nehring, Saunders, ISSAC 2011).
* everything that exposes a *basis* (``rref``, ``kernel_basis``,
  ``image_pivot_cols``, quotient presentations) goes through the reduced
  row echelon form, which is canonical -- unique for the row space -- so
  reported bases cannot depend on elimination internals.  ``echelon``
  eliminates primitive integer rows; its consumers put the finished rows
  over the lcm of their pivot entries.
"""

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rational import Q


class QMatrix:
    """Sparse matrix over Q: integer columns {row: int} over one denominator."""

    __slots__ = ("rows", "cols", "_cols", "den")

    def __init__(self, rows, cols, cols_data=None):
        """The rows x cols matrix with the {row: rational} columns cols_data
        (the zero matrix when it is None)."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        if cols_data is None:
            self._cols = [{} for _ in range(cols)]
            self.den = 1
        else:
            self.den, self._cols = integer_columns(cols_data)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(rows, cols):
        return QMatrix(rows, cols)

    @staticmethod
    def identity(n):
        return _new(n, n, [{i: 1} for i in range(n)], 1)

    @staticmethod
    def from_dense(entries, rows=None, cols=None):
        """Build from a row-major list of lists of ints/rationals."""
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        data = [{} for _ in range(cols)]
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                if v:
                    data[j][i] = v
        return QMatrix(rows, cols, data)

    @staticmethod
    def from_columns(rows, columns):
        """Build from an iterable of {row: value} dicts (values coerced)."""
        columns = list(columns)
        return QMatrix(rows, len(columns), columns)

    @staticmethod
    def from_integers(rows, columns, den=1):
        """Adopt the integer columns {row: int} over den > 0: zero entries
        (sums that cancelled) are deleted and the columns divided to lowest
        terms, both in place, so no second copy is held."""
        for c in columns:
            if 0 in c.values():
                for r in [r for r, v in c.items() if not v]:
                    del c[r]
        return _lowest(rows, len(columns), columns, den)

    # -- accessors ---------------------------------------------------

    def column(self, j):
        """Column j as {row: rational}."""
        den = self.den
        return {r: Q(v, den) for r, v in self._cols[j].items()}

    def entry(self, i, j):
        return Q(self._cols[j].get(i, 0), self.den)

    def nnz(self):
        return sum(len(c) for c in self._cols)

    def is_zero(self):
        return all(not c for c in self._cols)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den) == (other.rows, other.cols, other.den) and (
            self._cols == other._cols
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        self._shape_check(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        data = []
        for a, b in zip(self._cols, other._cols):
            col = dict(a) if s == 1 else {r: s * v for r, v in a.items()}
            for r, v in b.items():
                nv = col.get(r, 0) + t * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            data.append(col)
        return _lowest(self.rows, self.cols, data, den)

    def __neg__(self):
        return _new(
            self.rows, self.cols, [{r: -v for r, v in c.items()} for c in self._cols], self.den
        )

    def __matmul__(self, other):
        """Exact product: integer products summed over den(self) * den(other)."""
        rows, den, columns = _sum_of_products([(1, self, other)])
        return QMatrix.from_integers(rows, list(columns), den)

    def apply(self, vec):
        """Matrix times a sparse vector {index: rational} -> sparse vector."""
        return (self @ QMatrix(self.cols, 1, [vec])).column(0)

    def transpose(self):
        data = [{} for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                data[i][j] = v
        return _new(self.cols, self.rows, data, self.den)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        den = lcm(self.den, other.den)
        return _new(
            self.rows, self.cols + other.cols, _scaled(self, den) + _scaled(other, den), den
        )

    def select_columns(self, indices):
        return _lowest(self.rows, len(indices), [dict(self._cols[j]) for j in indices], self.den)

    def shift_rows(self, shift, rows):
        """The rows x cols matrix whose row r + shift is row r of self; rows
        that land outside [0, rows) are dropped."""
        data = [
            {r + shift: v for r, v in c.items() if 0 <= r + shift < rows} for c in self._cols
        ]
        return _lowest(rows, self.cols, data, self.den)

    def _shape_check(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def block_matrix(blocks, row_dims, col_dims):
    """Assemble from a {(bi, bj): QMatrix} dict of blocks.

    row_dims/col_dims give the block sizes in order; missing blocks are zero.
    The blocks are put over the lcm of their denominators, which stays in
    lowest terms (see ``_scaled``).  A block alone in its block column, at
    row offset 0 and over that lcm, lends the result its column dicts.
    """
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    den = lcm(*[m.den for m in blocks.values()])
    parts = {}          # block column -> its (row offset, block), in dict order
    for (bi, bj), m in blocks.items():
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        parts.setdefault(bj, []).append((row_off[bi], m))
    data = []
    for bj, n in enumerate(col_dims):
        ms = parts.get(bj, ())
        if len(ms) == 1 and ms[0][0] == 0 and ms[0][1].den == den:
            data.extend(ms[0][1]._cols)
            continue
        cols = [{} for _ in range(n)]
        for ro, m in ms:
            for tgt, col in zip(cols, m._cols if m.den == den else _scaled(m, den)):
                for i, v in col.items():
                    tgt[ro + i] = v
        data.extend(cols)
    return _new(row_off[-1], len(data), data, den)


def block_diag(mats):
    blocks = {(k, k): m for k, m in enumerate(mats)}
    return block_matrix(blocks, [m.rows for m in mats], [m.cols for m in mats])


def kron(X, Y):
    """The Kronecker product X (x) Y: column j1 * Y.cols + j2 is the tensor
    X_{j1} (x) Y_{j2}, whose row i1 * Y.rows + i2 holds X_{i1 j1} Y_{i2 j2}."""
    data = [
        {i * Y.rows + k: v * w for i, v in x.items() for k, w in y.items()}
        for x in X._cols for y in Y._cols
    ]
    return _lowest(X.rows * Y.rows, X.cols * Y.cols, data, X.den * Y.den)


def first_nonzero_column(terms):
    """(j, column j as {row: rational}, rows ascending) for the first nonzero
    column j of the sum of c * (X @ Y) over the terms (c, X, Y), c a nonzero
    int, or None when the sum is zero: the one exact zero test.

    No product is built: the loop behind ``@`` stops at that column.
    """
    _, den, columns = _sum_of_products(terms)
    for j, out in enumerate(columns):
        if any(out.values()):
            return j, {r: Q(v, den) for r, v in sorted(out.items()) if v}
    return None


def _sum_of_products(terms):
    """(rows, den, columns) of the sum of c * (X @ Y) over the terms
    (c, X, Y), c a nonzero int, the shapes checked at once: columns yields
    its integer columns over den, the lcm of the terms' denominators, each
    accumulated alone when read, cancelled entries left as zeros.
    """
    rows, cols = terms[0][1].rows, terms[0][2].cols
    for _, X, Y in terms:
        if X.cols != Y.rows or (X.rows, Y.cols) != (rows, cols):
            raise ValueError(f"shape mismatch {X.rows}x{X.cols} @ {Y.rows}x{Y.cols}")
    den = lcm(*[X.den * Y.den for _, X, Y in terms])
    parts = [(c * (den // (X.den * Y.den)), X._cols, Y._cols) for c, X, Y in terms]

    def columns():
        for j in range(cols):
            out = {}
            for s, mine, other in parts:
                for k, v in other[j].items():
                    v *= s
                    for r, w in mine[k].items():
                        out[r] = out.get(r, 0) + v * w
            yield out

    return rows, den, columns()


# ---------------------------------------------------------------------
# integer storage
# ---------------------------------------------------------------------

def _new(rows, cols, data, den):
    """The matrix of integer columns data over den, already in lowest terms."""
    m = object.__new__(QMatrix)
    m.rows, m.cols, m._cols, m.den = rows, cols, data, den
    return m


def _lowest(rows, cols, data, den):
    """The matrix of the integer columns data, which it adopts, over den > 0,
    with the common factor of den and every entry divided out in place."""
    if den != 1:
        g = den
        for c in data:
            if c:
                g = gcd(g, *c.values())
                if g == 1:
                    break
        if g != 1:
            den //= g
            for c in data:
                for r in c:
                    c[r] //= g
    return _new(rows, cols, data, den)


def _scaled(m, den):
    """Copies of m's columns over den, a multiple of m.den.

    Parts put over the lcm of their denominators stay in lowest terms: for
    each prime power p^e exactly dividing the lcm, some part has p^e in its
    own denominator, hence an entry prime to p, and its scale is prime to p.
    """
    s = den // m.den
    if s == 1:
        return [dict(c) for c in m._cols]
    return [{r: s * v for r, v in c.items()} for c in m._cols]


def integer_columns(columns):
    """(den, integer columns) of {key: value} dicts, the values coerced to
    Q: den is the lcm of their denominators and each column is den times
    its values, zeros left out.  The pair is in lowest terms.
    """
    cols = [{k: Q(v) for k, v in c.items() if v} for c in columns]
    den = lcm(*[v.denominator for c in cols for v in c.values()])
    return den, [{k: v.numerator * (den // v.denominator) for k, v in c.items()} for c in cols]


def _primitive(vec, skip=None):
    """A copy of the integer vector, less the keys in the set skip, divided
    by its content; None when no entry is left."""
    out = {k: v for k, v in vec.items() if k not in skip} if skip else dict(vec)
    if not out:
        return None
    g = gcd(*out.values())
    if g != 1:
        for k in out:
            out[k] //= g
    return out


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

def rank(matrix, skip_rows=None, pivot_cols=None):
    """Exact rank over Q; the input is not modified.

    With a set skip_rows, the rank of the matrix with those rows deleted
    (they are left out of the column copies, so no second matrix is made).
    With a list pivot_cols, the columns pivoted on are appended to it: they
    are independent and span the image of the matrix taken (less
    skip_rows).

    Certified early exit.  The number of nonzero rows left after skip_rows,
    ``bound``, is an upper bound for the rank, and the rank of any subset of
    the columns is a lower bound.  The columns are read in k stride chunks,
    chunk i holding every column j = i (mod k), with k = cols // (2 * bound)
    (at least 1) taken from the shape alone; once the columns read reach
    rank ``bound`` the rank is exact, their pivot columns span the image,
    and the remaining chunks are never copied.  A chunk that ends below the
    bound is followed by the next one, whose columns are first reduced by
    every pivot logged so far (``_reduce``), so no chunk's work is redone.
    With k == 1 (fewer than four times as many columns as bound) this is
    one plain elimination of every column.

    Each column is divided once by its content and then eliminated
    fraction-free (``_eliminate``).  Deterministic; the value is independent
    of pivot order and of the chunking.
    """
    live = set().union(*matrix._cols)
    if skip_rows:
        live.difference_update(skip_rows)
    bound = len(live)
    if not bound:
        return 0
    k = max(1, matrix.cols // (2 * bound))
    log, log_at = [], {}
    rk = 0
    for i in range(k):
        cols = []
        for j in range(i, matrix.cols, k):
            col = _primitive(matrix._cols[j], skip_rows)
            cols.append(_reduce(col, log, log_at) if col and log_at else col)
        pivots = _eliminate(cols, log if i < k - 1 else None)
        if pivot_cols is not None:
            pivot_cols.extend(i + k * c for c in pivots)
        rk += len(pivots)
        if rk == bound:
            break
        for t in range(len(log_at), len(log)):
            log_at[log[t][0]] = t
    return rk


def _reduce(col, log, log_at):
    """The primitive integer column col reduced in place by the logged
    pivots (row, pivot entry, other entries) whose rows it meets; None when
    nothing is left.

    Pivots are applied in log order, which is the order they were taken
    in: the column of pivot t was already clear of the rows of pivots
    0..t-1, so applying t never brings an earlier pivot row back, and the
    result meets no pivot row.  A heap of the log indices of the pivot rows
    the column meets (pushed when an entry appears) keeps the cost in
    proportion to the pivots actually applied.
    """
    todo = [log_at[r] for r in col if r in log_at]
    heapify(todo)
    while todo:
        r, p, rest = log[heappop(todo)]
        a = col.pop(r, None)
        if a is None:
            continue
        g = gcd(a, p)
        pm, am = p // g, a // g
        if pm < 0:
            pm, am = -pm, -am
        if pm != 1:
            for rr in col:
                col[rr] *= pm
        for rr, v in rest:
            nv = col.get(rr)
            if nv is None:
                col[rr] = -am * v
                t = log_at.get(rr)
                if t is not None:
                    heappush(todo, t)
            else:
                nv -= am * v
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
        if col:
            g = gcd(*col.values())
            if g != 1:
                for rr in col:
                    col[rr] //= g
    return col or None


def _eliminate(cols, log):
    """Eliminate the primitive integer columns cols (None for a zero column)
    in place until they are all zero; returns the indices of the pivot
    columns, in order.  With a list log, each pivot (row, pivot entry, the
    column's other entries) is appended to it.

    Clearing row r of column ``col`` with pivot column ``piv`` (pivot entry
    p, entry a = col[r], g = gcd(a, p)) sets ``col <- (p/g)*col - (a/g)*piv``
    and divides the result by its content, which keeps the integers small
    without creating a rational.

    Pivot order: the lightest live column, lowest index first, popped from
    a lazy-deletion heap keyed (len(col), j), pivoting on its row that meets
    the fewest columns.  Every live column keeps a heap key no larger than
    its length (a column is pushed again when it shrinks, or when a popped
    key turns out stale), so a popped key that matches is the true minimum.
    """
    row_cols = {}
    for j, col in enumerate(cols):
        if col:
            for r in col:
                row_cols.setdefault(r, set()).add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapify(heap)
    pivots = []
    while heap:
        length, c = heappop(heap)
        piv_col = cols[c]
        if piv_col is None:
            continue
        if len(piv_col) != length:
            heappush(heap, (len(piv_col), c))
            continue
        r = min(piv_col, key=lambda r: (len(row_cols[r]), r))
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
                            # row rr still meets the pivot column c, so its
                            # set empties only below, once c is dropped
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
            if not s:
                del row_cols[rr]
        cols[c] = None
        pivots.append(c)
        if log is not None:
            log.append((r, p, piv_items))
    return pivots


def nullity(matrix):
    return matrix.cols - rank(matrix)


# ---------------------------------------------------------------------
# canonical reduced row echelon form and its consumers
# ---------------------------------------------------------------------

def echelon(matrix):
    """The integer reduced row echelon form; the input is not modified.

    Returns (pivot_cols, rows) where rows is a list of primitive integer
    {col: int} vectors, one per pivot, each positive in its pivot column
    and zero in every other pivot column: row k divided by its entry in
    pivot_cols[k] is row k of the canonical RREF, which is unique for the
    row space, so the output is independent of elimination order.

    Each row is divided once by its content, eliminated forward with
    ``_clear``, then back-substituted from the last pivot.  Rows are
    bucketed by their leading column, which keeps the pivot search linear in
    the actual reduction work: when column c is reached, every unprocessed
    row with an entry in c has leading column exactly c, and the shortest
    of them is the pivot row.
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
    rows = [pivot_rows[col] for col in pivot_cols]
    return pivot_cols, [
        r if r[col] > 0 else {c: -v for c, v in r.items()} for col, r in zip(pivot_cols, rows)
    ]


def over_pivots(pivot_cols, rows):
    """(den, scales) for rows from ``echelon``: den is the lcm of the pivot
    entries and scales[k] * rows[k] is den times row k of the RREF."""
    pivots = [r[c] for c, r in zip(pivot_cols, rows)]
    den = lcm(*pivots)
    return den, [den // p for p in pivots]


def rref(matrix):
    """Canonical reduced row echelon form; the input is not modified.

    Returns (pivot_cols, rows) where rows is a list of {col: rational}
    dicts, one per pivot, with a 1 in its pivot column and zeros in every
    other pivot column: the rows of ``echelon`` divided by their pivots.
    """
    pivot_cols, rows = echelon(matrix)
    return pivot_cols, [
        {c: Q(v, r[col]) for c, v in r.items()} for col, r in zip(pivot_cols, rows)
    ]


def kernel_basis(matrix):
    """Canonical basis of ker(matrix) as the columns of a QMatrix."""
    pivot_cols, rows = echelon(matrix)
    den, scales = over_pivots(pivot_cols, rows)
    pivot_set = set(pivot_cols)
    free = [j for j in range(matrix.cols) if j not in pivot_set]
    data = []
    for f in free:
        vec = {f: den}
        for pc, r, s in zip(pivot_cols, rows, scales):
            v = r.get(f)
            if v:
                vec[pc] = -s * v
        data.append(vec)
    # in lowest terms: a pivot entry carrying p^e | den has, in its primitive
    # row, a free entry prime to p, and its scale den / pivot is prime to p
    return _new(matrix.cols, len(free), data, den)


def image_pivot_cols(matrix):
    """Indices of the canonical maximal independent subset of columns."""
    pivot_cols, _ = echelon(matrix)
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
    pivot_cols, rows = echelon(matrix.hstack(rhs))
    na = matrix.cols
    if any(pc >= na for pc in pivot_cols):
        return None
    return _rhs_block(pivot_cols, rows, na, rhs.cols, na, pivot_cols)


def solve_in_span(basis, targets):
    """Coordinates of each target column in span(basis columns).

    basis must have independent columns.  Returns a (basis.cols x
    targets.cols) coordinate matrix X with basis @ X == targets, or raises
    ValueError if some target leaves the span.
    """
    if basis.rows != targets.rows:
        raise ValueError("row mismatch in solve_in_span")
    pivot_cols, rows = echelon(basis.hstack(targets))
    nb = basis.cols
    if any(pc >= nb for pc in pivot_cols):
        raise ValueError("target column outside span")
    if len(pivot_cols) != nb:
        raise ValueError("basis columns are dependent")
    return _rhs_block(pivot_cols, rows, nb, targets.cols, nb, range(nb))


def _rhs_block(pivot_cols, rows, first, count, n_rows, row_index):
    """The n_rows x count matrix of the RREF entries in the columns first,
    ..., first + count - 1, the entries of pivot k in row row_index[k]."""
    den, scales = over_pivots(pivot_cols, rows)
    data = []
    for t in range(first, first + count):
        col = {}
        for i, r, s in zip(row_index, rows, scales):
            v = r.get(t)
            if v:
                col[i] = s * v
        data.append(col)
    return _lowest(n_rows, count, data, den)
