"""Chain complexes over Q, the total complex of a mixed complex and its
maps, homology, maps induced on homology, and the one builder of quotient
mixed complexes.

Truncation contract: a complex built through internal degree K has
trustworthy homology through K-1 ("valid_through"), because degree-n
homology needs the degree-(n+1) differential.  A total complex through K
reads B_m for m <= K-2 only (B_m sits in d_{m+2}), so a quotient mixed
complex descends B_{K-1} when a check first reads it (``top_B``).
"""

from .errors import ChainMapError, ComplexError
from .quotient import descend_map
from .sparse import (
    QMatrix,
    block_diag,
    block_matrix,
    first_nonzero_column,
    image_pivot_cols,
    kernel_basis,
    rank,
    solve_in_span,
)


class ChainComplexQ:
    """Nonnegatively graded complex with differentials d[n]: C_n -> C_{n-1}.

    d[0] is absent (stored as None).  d.d = 0 is checked exactly at
    construction; check=False is for callers that have checked it
    otherwise, because ``HomologyResult`` relies on it.
    """

    def __init__(self, dims, differentials, check=True):
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.d = [None] * (self.top + 1)
        for n, m in enumerate(differentials):
            if m is None:
                continue
            self.d[n] = m
        for n in range(1, self.top + 1):
            m = self.d[n]
            if m is None:
                raise ComplexError(f"missing differential d_{n}")
            if m.cols != self.dims[n] or m.rows != self.dims[n - 1]:
                raise ComplexError(
                    f"d_{n} has shape {m.rows}x{m.cols}, expected "
                    f"{self.dims[n - 1]}x{self.dims[n]}"
                )
        if check:
            self.check_dd_zero()

    def check_dd_zero(self):
        for n in range(1, self.top):
            found = first_nonzero_column([(1, self.d[n], self.d[n + 1])])
            if found is not None:
                raise ComplexError(
                    "d.d != 0", location=f"degree {n + 1}", basis_label=f"basis index {found[0]}"
                )


class HomologyResult:
    """Per-degree homology dimensions with lazily computed bases.

    dims[n] for n <= valid_through, and ranks[n] = rank d_n for n <= top
    (ranks[0] = 0).  cycle_basis(n) is canonical (RREF-derived), and
    boundary_basis(n) and representatives(n) both come from one canonical
    elimination of [d_{n+1} | cycle_basis(n)], cached per degree; dims are
    computed from ranks alone so that large complexes never pay for
    explicit bases.

    The ranks are compressed: d_1, d_2, ... are ranked in ascending order,
    and d_{n+1} is ranked with the rows at the pivot columns P of d_n left
    out.  Those columns are independent, so span(e_P) meets ker d_n only in
    0 and deleting the coordinates P is injective on ker d_n, which holds
    im d_{n+1} when d_n d_{n+1} = 0; the rank is unchanged.  That identity
    is the precondition: every complex read here has it checked exactly
    (``ChainComplexQ``, ``MixedComplex``, ``DeRhamComplex``).

    After compression d_{n+1} has at most dim ker d_n nonzero rows, which
    bounds its rank from above, and ``sparse.rank`` stops as soon as the
    stride chunks of columns it has read reach that bound: their pivot
    columns then span the image, and they are the pivot columns that the
    next degree leaves out.  A differential short of the bound (homology in
    degree n) has every chunk read, each reduced by the pivots before it.
    """

    def __init__(self, complex_):
        self.complex = complex_
        self.valid_through = complex_.top - 1
        self._frames = {}
        # ranks[n] = rank d_n (d_0 = 0); below: the pivot columns of d_{n-1}
        ranks = self.ranks = [0]
        below = None
        for n in range(1, complex_.top + 1):
            pivots = []
            ranks.append(rank(complex_.d[n], skip_rows=below, pivot_cols=pivots))
            below = set(pivots)
        self.dims = [
            complex_.dims[n] - ranks[n] - ranks[n + 1] for n in range(self.valid_through + 1)
        ]

    def cycle_basis(self, n):
        """Canonical basis of ker d_n (all of C_n when n = 0)."""
        if n == 0:
            return QMatrix.identity(self.complex.dims[0])
        return kernel_basis(self.complex.d[n])

    def boundary_basis(self, n):
        """Canonical basis of im d_{n+1}: the pivot columns of d_{n+1}."""
        return self._frame(n)[0]

    def representatives(self, n):
        """Cycle columns completing the boundaries to a basis of the cycles.

        Returns (reps, frame) with frame = boundaries then reps; homology
        classes are coordinatized against frame's rep block.
        """
        return self._frame(n)[1:]

    def _frame(self, n):
        """(boundaries, reps, frame) from one canonical elimination of
        [d_{n+1} | cycle basis]: its pivot columns in the d_{n+1} block are
        those of d_{n+1}, and a cycle is a pivot exactly when it leaves the
        span of im d_{n+1} and the cycles before it."""
        if n not in self._frames:
            c = self.complex
            d = c.d[n + 1] if n < c.top else QMatrix.zero(c.dims[n], 0)
            cy = self.cycle_basis(n)
            picked = image_pivot_cols(d.hstack(cy))
            bd = d.select_columns([j for j in picked if j < d.cols])
            reps = cy.select_columns([j - d.cols for j in picked if j >= d.cols])
            self._frames[n] = (bd, reps, bd.hstack(reps))
        return self._frames[n]

    def class_coordinates(self, n, vectors):
        """Coordinates of cycle columns in the degree-n homology basis."""
        reps, frame = self.representatives(n)
        if frame.cols == 0:
            if not vectors.is_zero():
                raise ChainMapError(f"nonzero vector in zero homology at degree {n}")
            return QMatrix.zero(reps.cols, vectors.cols)
        coords = solve_in_span(frame, vectors)
        return coords.shift_rows(reps.cols - frame.cols, reps.cols)


def homology(complex_):
    """Homology of a chain complex; dims valid through top degree - 1."""
    return HomologyResult(complex_)


def total_complex(mixed, top):
    """Total complex of the (b, B) bicomplex of mixed through degree top.

    Degree n is C_n + C_{n-2} + ... in that order (block j holds C_{n-2j});
    b acts inside each block and B moves block j to block j-1 of the
    degree below.  d.d = 0 is not checked again here: its blocks are the
    identities that ``MixedComplex`` checked at construction.  Block column
    0 of d_n is b_n alone: d_n shares its column dicts when b_n is over the
    common denominator (``block_matrix``).
    """

    def dims(n):
        return [mixed.dims[n - 2 * j] for j in range(n // 2 + 1)]

    diffs = [None]
    for n in range(1, top + 1):
        blocks = {}
        for j in range(n // 2 + 1):
            m = n - 2 * j
            if m >= 1:
                blocks[(j, j)] = mixed.b[m]
            if j >= 1 and mixed.B[m] is not None:
                blocks[(j - 1, j)] = mixed.B[m]
        diffs.append(block_matrix(blocks, dims(n - 1), dims(n)))
    return ChainComplexQ([sum(dims(n)) for n in range(top + 1)], diffs, check=False)


def total_map(per_degree):
    """Maps f[m]: C_m -> D_m of mixed complexes on the total degrees:
    block_diag(f[n], f[n-2], ...) in degree n."""
    return [block_diag(per_degree[n::-2]) for n in range(len(per_degree))]


class MixedComplex:
    """Modules C_n with b: C_n -> C_{n-1} and B: C_n -> C_{n+1}.

    Checked at construction: b.b = 0, B.B = 0 and bB + Bb = 0 on every
    given B, the last from degree 0 (where it reads b_1 B_0 = 0; a missing
    B is zero).  These make the cyclic-type bicomplex well defined and hold
    every block of d.d on its total complex, which reads B_m in d_{m+2}
    only, so no B_{top-1}.  That may be pending (B[top-1] None): the first
    ``top_B()`` builds it and checks B.B at top - 2 and bB + Bb at top - 1.
    Errors name the degree and the first failing basis index.

    Its total and column homologies are computed once and shared, so ranks
    and bases taken through one reader serve every other.
    """

    def __init__(self, dims, b, B, presentations=None, label="", pending_top_B=None):
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.b = list(b)
        self.B = list(B)
        self.presentations = presentations
        self.label = label
        self._pending_top_B = pending_top_B
        self._total_h = None
        self._column_h = None
        for n in range(2, self.top + 1):
            self._check("b.b != 0", n, [(1, self.b[n - 1], self.b[n])])
        self._check_B(self.B, range(self.top - 1), range(self.top))

    def _check_B(self, B, BB, bB_Bb):
        """B.B = 0 at the degrees BB, then bB + Bb = 0 at the degrees bB_Bb."""
        for n in BB:
            if B[n + 1] is not None and B[n] is not None:
                self._check("B.B != 0", n, [(1, B[n + 1], B[n])])
        for n in bB_Bb:
            if B[n] is None:
                continue
            terms = [(1, self.b[n + 1], B[n])]
            if n and B[n - 1] is not None:
                terms.append((1, B[n - 1], self.b[n]))
            self._check("bB + Bb != 0", n, terms, " (quotient did not kill the twist)")

    def _check(self, identity, n, terms, why=""):
        found = first_nonzero_column(terms)
        if found is not None:
            raise ComplexError(
                f"{identity} in {self.label or 'mixed complex'}{why}",
                location=f"degree {n}", basis_label=f"basis index {found[0]}",
            )

    def top_B(self):
        """B_{top-1}: C_{top-1} -> C_top.  A pending one is built and its
        two identities checked on the first call; every call returns the
        same matrix (None when there is no B)."""
        n = self.top - 1
        if self._pending_top_B is not None:
            B = self.B[:n] + [self._pending_top_B()] + self.B[n + 1:]
            self._check_B(B, range(max(n - 1, 0), n), [n])
            self.B, self._pending_top_B = B, None
        return self.B[n]

    def total_homology(self):
        """Homology of the total complex through the top degree; the same
        HomologyResult on every call."""
        if self._total_h is None:
            self._total_h = homology(total_complex(self, self.top))
        return self._total_h

    def column_homology(self):
        """Homology of the first column (C_*, b); the same HomologyResult
        on every call."""
        if self._column_h is None:
            self._column_h = homology(self.column_complex())
        return self._column_h

    def column_complex(self):
        """The first column (C_*, b) as a plain chain complex."""
        return ChainComplexQ(self.dims, [None] + self.b[1:], check=False)


def quotient_mixed_complex(top, presentation, b, B, label):
    """The mixed complex of a graded module divided by relations, through
    degree top, recording its presentations.

    presentation(n) presents degree n as a quotient of the undivided module
    (callers with a relation span pass it to ``quotient_by``); b(n) for
    n >= 1 and B(n) for n < top are the raw operators on the undivided
    modules.  Both descend through the quotients with the exact
    well-definedness check, whose error names the label and the degree:
    B_{top-1} on the first ``top_B()``, the rest at construction.  B=None
    builds a complex with no B (a Connes complex).
    """
    pres = [presentation(n) for n in range(top + 1)]

    def descend(name, f, n, m):
        return descend_map(f, pres[n], pres[m], what=f"{name}_{n} of {label}")

    b_down = [None] + [descend("b", b(n), n, n - 1) for n in range(1, top + 1)]
    B_down = [None] * (top + 1)
    pending = None
    if B is not None:
        B_down[:top - 1] = [descend("B", B(n), n, n + 1) for n in range(top - 1)]
        pending = lambda: descend("B", B(top - 1), top - 1, top)
    dims = [p.quotient_dim for p in pres]
    return MixedComplex(dims, b_down, B_down, pres, label, pending)


def check_chain_map(f_per_degree, src, dst, top):
    """Exact check that f commutes with the differentials through degree top."""
    for n in range(1, top + 1):
        terms = [(1, dst.d[n], f_per_degree[n]), (-1, f_per_degree[n - 1], src.d[n])]
        if first_nonzero_column(terms) is not None:
            raise ChainMapError(f"chain map fails to commute at degree {n}")


def check_mixed_map(f, src, dst, what):
    """Exact check that the maps f[n]: src C_n -> dst C_n, for n through
    the top degree len(f) - 1 of both, commute with b and with B (read at
    top - 1 through top_B()); raises ChainMapError naming what, the
    operator and the first failing degree (b before B)."""
    top = len(f) - 1
    for n in range(1, top + 1):
        if first_nonzero_column([(1, dst.b[n], f[n]), (-1, f[n - 1], src.b[n])]) is not None:
            raise ChainMapError(f"{what} fails b at degree {n}")
    for n in range(top):
        B_src, B_dst = (src.B[n], dst.B[n]) if n < top - 1 else (src.top_B(), dst.top_B())
        if first_nonzero_column([(1, B_dst, f[n]), (-1, f[n + 1], B_src)]) is not None:
            raise ChainMapError(f"{what} fails B at degree {n}")


def induced_on_homology(f_per_degree, src_h, dst_h):
    """Matrices of the induced map on homology, degree by degree.

    f_per_degree[n] maps src C_n to dst C_n; the chain map property is
    checked exactly first.
    """
    src, dst = src_h.complex, dst_h.complex
    check_chain_map(f_per_degree, src, dst, min(src.top, dst.top))
    out = {}
    for n in range(min(src_h.valid_through, dst_h.valid_through) + 1):
        reps, _ = src_h.representatives(n)
        images = f_per_degree[n] @ reps
        out[n] = dst_h.class_coordinates(n, images)
    return out
