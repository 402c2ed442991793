"""Independent brute-force implementations used as test oracles.

Everything here is deliberately primitive and separate from the library:
dense Fraction matrices, full (unnormalized) tensor modules, and the
degree-raising operator built as (1 - cyclic) . extra-degeneracy . norm
rather than the library's closed formula.  Agreement between this route
and the sparse normalized pipeline is what the oracle tests assert.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import lcm


# -- dense linear algebra ---------------------------------------------

def dense_rank(m):
    if not m or not m[0]:
        return 0
    a = [row[:] for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def dense_rref(m):
    """(pivot_cols, rows) of the reduced row echelon form, rows as dense lists."""
    a = [row[:] for row in m]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots, a[:r]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity_mat(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zero_mat(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def column_space_basis(m):
    """Independent columns of m (as column vectors), via dense elimination."""
    if not m:
        return []
    rows = len(m)
    cols = len(m[0]) if m else 0
    picked = []
    echelon = []  # list of (pivot_row, column_vector)
    for j in range(cols):
        v = [m[i][j] for i in range(rows)]
        for pr, pc in echelon:
            if v[pr]:
                f = v[pr] / pc[pr]
                v = [x - f * y for x, y in zip(v, pc)]
        nz = next((i for i, x in enumerate(v) if x), None)
        if nz is not None:
            echelon.append((nz, v))
            picked.append([m[i][j] for i in range(rows)])
    return picked


def reference_first_nonzero_column(terms):
    """(j, column j as {row: Fraction}, rows ascending) for the first nonzero
    column j of the sum of c * (X @ Y) over the terms (c, X, Y) of
    QMatrix X and Y, or None: ``thl.sparse.first_nonzero_column`` with no
    packed path.  Each column is accumulated alone in a dict over the lcm
    of the terms' denominators and scanned; the shapes are checked first,
    with the library's message."""
    rows, cols = terms[0][1].rows, terms[0][2].cols
    for _, X, Y in terms:
        if X.cols != Y.rows or (X.rows, Y.cols) != (rows, cols):
            raise ValueError(f"shape mismatch {X.rows}x{X.cols} @ {Y.rows}x{Y.cols}")
    den = lcm(*[X.den * Y.den for _, X, Y in terms])
    for j in range(cols):
        out = {}
        for c, X, Y in terms:
            s = c * (den // (X.den * Y.den))
            for k, v in Y._cols[j].items():
                for r, w in X._cols[k].items():
                    out[r] = out.get(r, 0) + s * v * w
        if any(out.values()):
            return j, {r: Fraction(v, den) for r, v in sorted(out.items()) if v}
    return None


def one_int_per_row(m):
    """Whether every row index of the QMatrix m is stored as one int object:
    each key is the first key of its value seen in m's columns."""
    first = {}
    return all(first.setdefault(r, r) is r for col in m._cols for r in col)


def reference_rank(m, skip_rows=None):
    """(rank, pivot columns) of the QMatrix m less skip_rows, by the stride
    chunks of ``thl.sparse.rank`` with neither annihilators nor length
    buckets: every chunk after a short one is reduced by all the pivots
    logged before it, in log order, and each pivot is popped from one heap
    of (column length, column index) pairs, on its row that meets the
    fewest columns (lowest row first).  Exact over Fraction; every pivot
    choice depends only on nonzero patterns, so the library must agree.
    """
    skip = skip_rows or set()
    live = {r for c in m._cols for r in c if r not in skip}
    if not live:
        return 0, []
    k = max(1, m.cols // (2 * len(live)))
    log, pivots = [], []
    for i in range(k):
        cols = []
        for j in range(i, m.cols, k):
            col = {r: Fraction(v) for r, v in m._cols[j].items() if r not in skip}
            for r, piv in log:
                if r in col:
                    _subtract(col, col[r] / piv[r], piv, r)
            cols.append(col or None)
        row_cols = {}
        for j, col in enumerate(cols):
            for r in col or ():
                row_cols.setdefault(r, set()).add(j)
        heap = [(len(col), j) for j, col in enumerate(cols) if col]
        heapify(heap)
        while heap:
            n, c = heappop(heap)
            piv = cols[c]
            if piv is None:
                continue
            if len(piv) != n:
                heappush(heap, (len(piv), c))
                continue
            r = min(piv, key=lambda r: (len(row_cols[r]), r))
            for j in row_cols.pop(r) - {c}:
                col = cols[j]
                before = len(col)
                for rr in _subtract(col, col[r] / piv[r], piv, r):
                    (row_cols[rr].add if rr in col else row_cols[rr].discard)(j)
                if not col:
                    cols[j] = None
                elif len(col) < before:
                    heappush(heap, (len(col), j))
            for rr in piv:
                if rr != r:
                    row_cols[rr].discard(c)
                    if not row_cols[rr]:
                        del row_cols[rr]
            cols[c] = None
            pivots.append(i + k * c)
            log.append((r, piv))
        if len(pivots) == len(live):
            break
    return len(pivots), pivots


def _subtract(col, f, piv, r):
    """col -= f * piv in place, where the subtraction clears row r; returns
    the other rows of piv, whose entries of col changed."""
    del col[r]
    rows = [rr for rr in piv if rr != r]
    for rr in rows:
        nv = col.get(rr, 0) - f * piv[rr]
        if nv:
            col[rr] = nv
        else:
            del col[rr]
    return rows


# -- dense algebras ----------------------------------------------------

class DenseAlgebra:
    """Structure constants as a dense table c[i][j][k]."""

    def __init__(self, dim, table, unit_vec):
        self.dim = dim
        self.table = table
        self.unit = unit_vec

    def mul_vec(self, a, b):
        out = [Fraction(0)] * self.dim
        for i, va in enumerate(a):
            if not va:
                continue
            for j, vb in enumerate(b):
                if not vb:
                    continue
                for k in range(self.dim):
                    c = self.table[i][j][k]
                    if c:
                        out[k] += va * vb * c
        return out


def ground_field():
    return DenseAlgebra(1, [[[Fraction(1)]]], [Fraction(1)])


def dual_numbers():
    """Q[x]/(x^2) with basis (1, x)."""
    t = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    t[0][0][0] = Fraction(1)
    t[0][1][1] = Fraction(1)
    t[1][0][1] = Fraction(1)
    return DenseAlgebra(2, t, [Fraction(1), Fraction(0)])


def triple_lines():
    """Q^3 in the basis (1, f2, f3) where f2, f3 are idempotents."""
    d = 3
    t = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for j in range(d):
        t[0][j][j] = Fraction(1)
        t[j][0][j] = Fraction(1)
    t[1][1][1] = Fraction(1)
    t[2][2][2] = Fraction(1)
    return DenseAlgebra(d, t, [Fraction(1), Fraction(0), Fraction(0)])


def shift_autom_triple_lines():
    """Coordinate shift of Q^3 written in the (1, f2, f3) basis; order 3."""
    return [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(-1)],
    ]


def sign_autom_dual():
    return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]


# -- full tensor modules and the twisted cyclic structure --------------

def tuples(dim, slots):
    return list(product(range(dim), repeat=slots))


def tuple_index(tup, dim):
    idx = 0
    for t in tup:
        idx = idx * dim + t
    return idx


def apply_autom(g, vec):
    d = len(vec)
    out = [Fraction(0)] * d
    for j, v in enumerate(vec):
        if v:
            for i in range(d):
                if g[i][j]:
                    out[i] += v * g[i][j]
    return out


def face_matrix(alg, g, n):
    """Twisted b: A^{(n+1)} -> A^{(n)} on full modules, dense."""
    d = alg.dim
    src = tuples(d, n + 1)
    rows = d ** n
    out = zero_mat(rows, len(src))
    for cj, tup in enumerate(src):
        for i in range(n):
            prod = alg.mul_vec(
                [Fraction(1 if t == tup[i] else 0) for t in range(d)],
                [Fraction(1 if t == tup[i + 1] else 0) for t in range(d)],
            )
            sign = Fraction((-1) ** i)
            rest = tup[:i] + tup[i + 2 :]
            for k, v in enumerate(prod):
                if v:
                    tgt = rest[:i] + (k,) + rest[i:]
                    out[tuple_index(tgt, d)][cj] += sign * v
        gv = apply_autom(g, [Fraction(1 if t == tup[n] else 0) for t in range(d)])
        sign = Fraction((-1) ** n)
        for m, w in enumerate(gv):
            if not w:
                continue
            prod = alg.mul_vec(
                [Fraction(1 if t == m else 0) for t in range(d)],
                [Fraction(1 if t == tup[0] else 0) for t in range(d)],
            )
            for k, v in enumerate(prod):
                if v:
                    tgt = (k,) + tup[1 : n]
                    out[tuple_index(tgt, d)][cj] += sign * w * v
    return out


def cyclic_matrix(alg, g, n):
    """Signed twisted cyclic operator lambda on A^{(n+1)}, dense."""
    d = alg.dim
    src = tuples(d, n + 1)
    size = len(src)
    out = zero_mat(size, size)
    sign = Fraction((-1) ** n)
    for cj, tup in enumerate(src):
        gv = apply_autom(g, [Fraction(1 if t == tup[n] else 0) for t in range(d)])
        for m, w in enumerate(gv):
            if w:
                tgt = (m,) + tup[:n]
                out[tuple_index(tgt, d)][cj] += sign * w
    return out


def twist_diag_matrix(g, n):
    """g applied to every slot of A^{(n+1)}, dense."""
    d = len(g)
    src = tuples(d, n + 1)
    size = len(src)
    out = zero_mat(size, size)
    for cj, tup in enumerate(src):
        terms = [(tuple(), Fraction(1))]
        for s in tup:
            gv = apply_autom(g, [Fraction(1 if t == s else 0) for t in range(d)])
            terms = [
                (pre + (m,), c * w)
                for pre, c in terms
                for m, w in enumerate(gv)
                if w
            ]
        for tgt, c in terms:
            out[tuple_index(tgt, d)][cj] += c
    return out


def degree_raise_matrix(alg, g, n):
    """B = (1 - lambda) . s . N on full modules, dense."""
    d = alg.dim
    size_n = d ** (n + 1)
    lam = cyclic_matrix(alg, g, n)
    norm = identity_mat(size_n)
    acc = identity_mat(size_n)
    for _ in range(n):
        acc = mat_mul(lam, acc)
        norm = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(norm, acc)]
    # extra degeneracy: insert the unit in slot 0
    s_mat = zero_mat(d ** (n + 2), size_n)
    unit = alg.unit
    for cj, tup in enumerate(tuples(d, n + 1)):
        for u, uv in enumerate(unit):
            if uv:
                s_mat[tuple_index((u,) + tup, d)][cj] += uv
    lam_up = cyclic_matrix(alg, g, n + 1)
    one_minus = mat_sub(identity_mat(d ** (n + 2)), lam_up)
    return mat_mul(one_minus, mat_mul(s_mat, norm))


class DenseQuotient:
    """Dense quotient of Q^dim by the column span of relations."""

    def __init__(self, dim, relations):
        basis = column_space_basis(relations)
        # echelonize the relation basis, record pivot coordinates
        ech = []
        pivots = []
        for v in basis:
            v = v[:]
            for pr, pv in zip(pivots, ech):
                if v[pr]:
                    f = v[pr] / pv[pr]
                    v = [x - f * y for x, y in zip(v, pv)]
            nz = next((i for i, x in enumerate(v) if x), None)
            if nz is not None:
                pivots.append(nz)
                ech.append(v)
        self.dim = dim
        self.pivots = pivots
        self.ech = ech
        self.free = [i for i in range(dim) if i not in pivots]

    def project(self, vec):
        v = vec[:]
        for pr, pv in zip(self.pivots, self.ech):
            if v[pr]:
                f = v[pr] / pv[pr]
                v = [x - f * y for x, y in zip(v, pv)]
        return [v[i] for i in self.free]

    def lift(self, qvec):
        v = [Fraction(0)] * self.dim
        for val, i in zip(qvec, self.free):
            v[i] = val
        return v

    def descend(self, mat, src):
        """Induce an ambient map src ambient -> self ambient on quotients."""
        cols = []
        for j in range(len(src.free)):
            amb = src.lift([Fraction(1 if t == j else 0) for t in range(len(src.free))])
            img = [
                sum(mat[i][k] * amb[k] for k in range(len(amb)))
                for i in range(len(mat))
            ]
            cols.append(self.project(img))
        rows = len(self.free)
        return [[cols[j][i] for j in range(len(cols))] for i in range(rows)]


def hc_dims_bicomplex(alg, g, max_degree):
    """Twisted cyclic homology dims via the full-module quotient bicomplex.

    Modules A^{(n+1)}/(1 - T_g); vertical b, horizontal B = (1-lambda).s.N,
    both descended; total complex assembled column by column.
    """
    k = max_degree + 1
    quots = []
    for n in range(k + 1):
        size = alg.dim ** (n + 1)
        t = twist_diag_matrix(g, n)
        rel = mat_sub(identity_mat(size), t)
        quots.append(DenseQuotient(size, rel))
    b = {n: quots[n - 1].descend(face_matrix(alg, g, n), quots[n]) for n in range(1, k + 1)}
    bb = {n: quots[n + 1].descend(degree_raise_matrix(alg, g, n), quots[n]) for n in range(k)}
    dims = [len(qt.free) for qt in quots]

    def total_dim(n):
        return sum(dims[n - 2 * j] for j in range(n // 2 + 1))

    def total_d(n):
        """Differential total_n -> total_{n-1}: per summand j, b stays, B moves to j-1."""
        rows = total_dim(n - 1)
        cols = total_dim(n)
        out = zero_mat(rows, cols)
        col_off = 0
        row_offs = []
        off = 0
        for j in range((n - 1) // 2 + 1):
            row_offs.append(off)
            off += dims[n - 1 - 2 * j]
        for j in range(n // 2 + 1):
            m = n - 2 * j
            if m >= 1:
                mat = b[m]
                for jj in range(len(mat[0]) if mat else 0):
                    for ii in range(len(mat)):
                        if mat[ii][jj]:
                            out[row_offs[j] + ii][col_off + jj] += mat[ii][jj]
            if j >= 1:
                mat = bb[m]
                for jj in range(len(mat[0]) if mat else 0):
                    for ii in range(len(mat)):
                        if mat[ii][jj]:
                            out[row_offs[j - 1] + ii][col_off + jj] += mat[ii][jj]
            col_off += dims[m]
        return out

    ds = {n: total_d(n) for n in range(1, k + 1)}
    # d.d = 0 sanity on the oracle itself
    for n in range(1, k):
        prod = mat_mul(ds[n], ds[n + 1])
        assert all(all(x == 0 for x in row) for row in prod), "oracle bicomplex broken"
    out = []
    for n in range(max_degree + 1):
        rk_n = dense_rank(ds[n]) if n >= 1 else 0
        rk_n1 = dense_rank(ds[n + 1])
        out.append(total_dim(n) - rk_n - rk_n1)
    return out


def hc_dims_lambda(alg, g, max_degree):
    """Twisted cyclic homology dims via the Connes quotient complex
    (A^{(n+1)}/(1 - lambda), b)."""
    k = max_degree + 1
    quots = []
    for n in range(k + 1):
        size = alg.dim ** (n + 1)
        lam = cyclic_matrix(alg, g, n)
        rel = mat_sub(identity_mat(size), lam)
        quots.append(DenseQuotient(size, rel))
    b = {n: quots[n - 1].descend(face_matrix(alg, g, n), quots[n]) for n in range(1, k + 1)}
    for n in range(1, k):
        prod = mat_mul(b[n], b[n + 1])
        assert all(all(x == 0 for x in row) for row in prod), "oracle lambda complex broken"
    dims = [len(qt.free) for qt in quots]
    out = []
    for n in range(max_degree + 1):
        rk_n = dense_rank(b[n]) if n >= 1 else 0
        rk_n1 = dense_rank(b[n + 1])
        out.append(dims[n] - rk_n - rk_n1)
    return out


def hochschild_dims(alg, g, max_degree):
    """Twisted Hochschild dims of the quotient column (A^{(n+1)}/(1-T), b)."""
    k = max_degree + 1
    quots = []
    for n in range(k + 1):
        size = alg.dim ** (n + 1)
        t = twist_diag_matrix(g, n)
        rel = mat_sub(identity_mat(size), t)
        quots.append(DenseQuotient(size, rel))
    b = {n: quots[n - 1].descend(face_matrix(alg, g, n), quots[n]) for n in range(1, k + 1)}
    dims = [len(qt.free) for qt in quots]
    out = []
    for n in range(max_degree + 1):
        rk_n = dense_rank(b[n]) if n >= 1 else 0
        rk_n1 = dense_rank(b[n + 1])
        out.append(dims[n] - rk_n - rk_n1)
    return out


# -- the per-tuple tensor operator kernel ------------------------------

def reference_tensor_operator(src, dst, terms, den=1):
    """Matrix from src to dst of a slot-wise operator, expanded one basis
    tensor at a time: the kernel ``algebra.tensor_operator`` replaced.

    terms(g, a) lists, for the basis tensor (g | a) of src, the terms
    (c, h, slots) of its image: the image is the sum of
    c/den (h | x_0 (x) ... (x) x_m), where h is the target group tuple and
    each slot x_s is a basis index or an integer vector {index: int}.  The
    unit is dropped from reduced target slots.
    """
    from thl.sparse import QMatrix

    place = []
    stride = 1
    for flag, size in zip(reversed(dst.reduced), reversed(dst.slot_sizes)):
        if flag:
            place.append([None] + [(k - 1) * stride for k in range(1, dst.d)])
        else:
            place.append([k * stride for k in range(dst.d)])
        stride *= size
    place.reverse()
    goff = {h: k * dst.asize for k, h in enumerate(dst.iter_group())}
    atuples = list(product(*[range(1 if f else 0, src.d) for f in src.reduced]))
    cols = []
    for g in src.iter_group():
        for a in atuples:
            out = {}
            for c, h, slots in terms(g, a):
                base = goff[h]
                part = [(0, c)]
                for off, x in zip(place, slots):
                    if x.__class__ is int:
                        o = off[x]
                        if o is None:
                            break
                        base += o
                    else:
                        part = [
                            (i + off[k], v * w)
                            for i, v in part
                            for k, w in x.items()
                            if off[k] is not None
                        ]
                        if not part:
                            break
                else:
                    for i, v in part:
                        i += base
                        out[i] = out.get(i, 0) + v
            cols.append({i: n for i, n in out.items() if n})
    return QMatrix.from_integers(dst.size, cols, den)


# -- the operator identities, as products on assembled blocks ----------

def _assembled_bB(o, p, q):
    m = o.b(p, q + 1) @ o.B(p, q)
    return m + o.B(p, q - 1) @ o.b(p, q) if q >= 1 else m


def _assembled_U(o, p, q):
    return o.T(p + 1, q) @ o.Bbar(p, q)


def _assembled_sides(name, o, p, q):
    """The two sides of the identity name on block (p, q), each built as a
    whole product of assembled operators; a right side of None is zero."""
    from thl.sparse import QMatrix

    if name == "b^2=0":
        return o.b(p, q - 1) @ o.b(p, q), None
    if name == "B^2=0":
        return o.B(p, q + 1) @ o.B(p, q), None
    if name == "bbar^2=0":
        return o.bbar(p - 1, q) @ o.bbar(p, q), None
    if name == "bB+Bb=1-T":
        return _assembled_bB(o, p, q), QMatrix.identity(o.basis(p, q).size) - o.T(p, q)
    if name == "bbarB+Bbbar=0":
        return o.bbar(p, q + 1) @ o.B(p, q) + o.B(p - 1, q) @ o.bbar(p, q), None
    if name == "[T,b]=0":
        return o.T(p, q - 1) @ o.b(p, q), o.b(p, q) @ o.T(p, q)
    if name == "[T,bbar]=0":
        return o.T(p - 1, q) @ o.bbar(p, q), o.bbar(p, q) @ o.T(p, q)
    if name == "[T,B]=0":
        return o.T(p, q + 1) @ o.B(p, q), o.B(p, q) @ o.T(p, q)
    if name == "b.bbar+bbar.b=0":
        return o.b(p - 1, q) @ o.bbar(p, q) + o.bbar(p, q - 1) @ o.b(p, q), None
    if name == "bB+Bb+bbarU+Ubbar=0":
        m = _assembled_bB(o, p, q) + o.bbar(p + 1, q) @ _assembled_U(o, p, q)
        return (m + _assembled_U(o, p - 1, q) @ o.bbar(p, q) if p >= 1 else m), None
    if name == "bU+Ub=0":
        return o.b(p + 1, q) @ _assembled_U(o, p, q) + _assembled_U(o, p, q - 1) @ o.b(p, q), None
    raise KeyError(name)


def assembled_identity(ops, name, p, q):
    """Outcome of the identity name on block (p, q), in the form of
    ``crossed.check_identity``, evaluated on the whole block: the sides are
    built as products of the assembled operators ops.b, ops.B, ops.T,
    ops.bbar and ops.Bbar and subtracted, and the residual is read column by
    column; the failing column is given with its rows ascending."""
    lhs, rhs = _assembled_sides(name, ops, p, q)
    residual = lhs if rhs is None else lhs - rhs
    j = next((k for k, c in enumerate(residual._cols) if c), None)
    if j is None:
        return ""
    col = dict(sorted(residual.column(j).items()))
    return (
        f"first residual at (p,q)=({p},{q}) on "
        f"{ops.basis(p, q).label(j, ops.group, ops.algebra)}: {col}"
    )


# -- homology frames by two eliminations ---------------------------------

def two_step_frame(h, n):
    """(boundaries, reps, frame) of degree n of the homology h, built with
    two eliminations: the pivot columns of d_{n+1} (none in the top degree)
    as the boundaries, then the cycle columns independent of the boundaries
    and of the cycles before them as the representatives."""
    from thl.sparse import QMatrix, image_basis, image_pivot_cols

    c = h.complex
    bd = image_basis(c.d[n + 1]) if n < c.top else QMatrix.zero(c.dims[n], 0)
    cy = h.cycle_basis(n)
    picked = image_pivot_cols(bd.hstack(cy))
    reps = cy.select_columns([j - bd.cols for j in picked if j >= bd.cols])
    return bd, reps, bd.hstack(reps)


# -- the crossed-product quotient on the ambient modules ------------------

def ambient_crossed_quotient(ops, max_degree):
    """The crossed-product quotient bicomplex of the GJOperators ops,
    un-normalized and assembled on the ambient modules: degree n is the
    direct sum over p and every group tuple gt of G^{p+1} of the (1 - T)
    quotient of the element sigma(gt) in degree n - p, and b + bbar and B
    are the ambient block matrices, projected through that sum."""
    from thl.complexes import quotient_mixed_complex
    from thl.quotient import direct_sum
    from thl.sparse import block_matrix

    group = ops.group

    def sizes(n):
        return [ops.basis(p, n - p).size for p in range(n + 1)]

    def presentation(n):
        return direct_sum([
            ops.element(group.inverse[group.product(gt)]).presentation(n - p)
            for p in range(n + 1) for gt in ops.basis(p, n - p).iter_group()
        ])

    def b(n):
        blocks = {(p, p): ops.b(p, n - p) for p in range(n)}
        blocks.update({(p - 1, p): ops.bbar(p, n - p) for p in range(1, n + 1)})
        return block_matrix(blocks, sizes(n - 1), sizes(n))

    def B(n):
        return block_matrix({(p, p): ops.B(p, n - p) for p in range(n + 1)},
                            sizes(n + 1), sizes(n))

    return quotient_mixed_complex(
        max_degree + 1, lambda n: presentation(n).relation_basis, b, B,
        "ambient crossed-product quotient", presentation,
    )


def degenerate_coordinates(ops, n):
    """(kept, degenerate): the quotient coordinates of degree n of
    ``ambient_crossed_quotient`` on the non-degenerate group tuples (g_i != e
    for every i >= 1), and those on the others, each ascending."""
    group = ops.group
    kept, degenerate, off = [], [], 0
    for p in range(n + 1):
        for gt in ops.basis(p, n - p).iter_group():
            dim = ops.element(group.inverse[group.product(gt)]).presentation(n - p).quotient_dim
            part = degenerate if group.identity_index in gt[1:] else kept
            part.extend(range(off, off + dim))
            off += dim
    return kept, degenerate


def restricted(m, rows, cols):
    """The submatrix of m on the rows and the columns given, in their order."""
    from thl.sparse import QMatrix

    at = {r: k for k, r in enumerate(rows)}
    return QMatrix.from_columns(
        len(rows), [{at[r]: v for r, v in m.column(j).items() if r in at} for j in cols]
    )
