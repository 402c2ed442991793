"""Chain complexes over Q, the total complex of a mixed complex and its
maps, homology, maps induced on homology, and the one builder of quotient
mixed complexes.

Truncation contract: a complex built through internal degree K has
trustworthy homology through K-1 ("valid_through"), because degree-n
homology needs the degree-(n+1) differential: of d_K, only its image.  A
total complex through K reads B_m for m <= K-2 only (B_m sits in d_{m+2}).
So a quotient mixed complex leaves C_K pending until its first read, which
presents C_K and descends B_{K-1}.
"""

from bisect import bisect_left

from .errors import ChainMapError, ComplexError
from .quotient import descend_map, descended, quotient_by
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

    A pending top (present_top given) is a module mapping onto C_top with
    the image of d_top, which ``HomologyResult`` ranks; the first read of
    dims, d or ``differential(top)`` replaces both by present_top().
    """

    def __init__(self, dims, differentials, check=True, present_top=None):
        self._dims = list(dims)
        self.top = len(self._dims) - 1
        self._d = [None] * (self.top + 1)
        self._d[:len(differentials)] = differentials
        for n in range(1, self.top + 1):
            m = self._d[n]
            if m is None:
                raise ComplexError(f"missing differential d_{n}")
            if m.cols != self._dims[n] or m.rows != self._dims[n - 1]:
                raise ComplexError(
                    f"d_{n} has shape {m.rows}x{m.cols}, expected "
                    f"{self._dims[n - 1]}x{self._dims[n]}"
                )
        self._present_top = present_top
        if check:
            self.check_dd_zero()

    def _presented(self):
        if self._present_top:
            self._dims[-1], self._d[-1] = self._present_top()
            self._present_top = None
        return self

    dims = property(lambda self: self._presented()._dims)
    d = property(lambda self: self._presented()._d)

    def differential(self, n):
        """d[n]; only n = top presents a pending top."""
        return (self.d if n == self.top else self._d)[n]

    def check_dd_zero(self):
        for n in range(2, self.top + 1):
            check_zero("d.d", "chain complex", n, [(1, self._d[n - 1], self._d[n])])


def check_zero(identity, label, n, terms):
    """Exact check that the sum of the products c X Y in terms, read from
    C_n, is zero: the one check of every d.d, b.b, B.B and bB + Bb.  Raises
    ComplexError "<identity> != 0 in <label>" naming the degree n and the
    first nonzero column (``first_nonzero_column``) as the basis index."""
    found = first_nonzero_column(terms)
    if found is not None:
        raise ComplexError(
            f"{identity} != 0 in {label}", location=f"degree {n}",
            basis_label=f"basis index {found[0]}",
        )


def check_mixed_identities(label, b, B, bb=(), BB=(), bB_Bb=(), quotient=False):
    """b.b = 0 at the degrees bb, B.B = 0 at BB and bB + Bb = 0 at bB_Bb
    of a mixed complex named label, each skipped where a B it reads is
    None (a missing B is zero).  The bB + Bb error of a quotient complex
    adds that the quotient did not kill the twist."""
    for n in bb:
        check_zero("b.b", label, n, [(1, b[n - 1], b[n])])
    for n in BB:
        if B[n + 1] is not None and B[n] is not None:
            check_zero("B.B", label, n, [(1, B[n + 1], B[n])])
    for n in bB_Bb:
        if B[n] is not None:
            Bb = [(1, B[n - 1], b[n])] if n and B[n - 1] is not None else []
            hinted = f"{label} (quotient did not kill the twist)" if quotient else label
            check_zero("bB + Bb", hinted, n, [(1, b[n + 1], B[n])] + Bb)


class HomologyResult:
    """Per-degree homology dimensions with lazily computed bases.

    dims[n] for n <= valid_through, and ranks[n] = rank d_n for n <= top
    (ranks[0] = 0).  cycle_basis(n) is canonical (RREF-derived), and
    boundary_basis(n) and representatives(n) both come from one canonical
    elimination of [d_{n+1} | cycle_basis(n)], cached per degree; dims are
    computed from ranks alone so that large complexes never pay for
    explicit bases.  The bases read a pending top (``ChainComplexQ``) presented.

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
    degree n) is certified by the annihilators of the chunks read: a later
    column they kill is skipped, and only a chunk with a column they do
    not kill is reduced by the pivots before it.
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
            ranks.append(rank(complex_._d[n], skip_rows=below, pivot_cols=pivots))
            below = set(pivots)
        self.dims = [
            complex_._dims[n] - ranks[n] - ranks[n + 1] for n in range(self.valid_through + 1)
        ]

    def cycle_basis(self, n):
        """Canonical basis of ker d_n (all of C_n when n = 0)."""
        if n == 0:
            return QMatrix.identity(self.complex._dims[0])
        return kernel_basis(self.complex.differential(n))

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
            d = c.differential(n + 1) if n < c.top else QMatrix.zero(c.dims[n], 0)
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


def total_complex(mixed):
    """Total complex of the (b, B) bicomplex of mixed through its top.

    Degree n is C_n + C_{n-2} + ... in that order (block j holds C_{n-2j});
    b acts inside each block and B moves block j to block j-1 of the
    degree below.  d.d = 0 is not checked again here: its blocks are the
    identities that ``MixedComplex`` checked at construction.  Block column
    0 of d_n is b_n alone: d_n shares its column dicts when b_n is over the
    common denominator (``block_matrix``).  A pending top stays pending.
    """
    column, B, top = mixed.column, mixed._B, mixed.top

    def dims(n):
        return [column._dims[n - 2 * j] for j in range(n // 2 + 1)]

    def d(n):
        blocks = {}
        for j in range(n // 2 + 1):
            m = n - 2 * j
            if m >= 1:
                blocks[(j, j)] = column._d[m]
            if j >= 1 and B[m] is not None:
                blocks[(j - 1, j)] = B[m]
        return block_matrix(blocks, dims(n - 1), dims(n))

    def present_top():
        column._presented()
        return sum(dims(top)), d(top)

    return ChainComplexQ(
        [sum(dims(n)) for n in range(top + 1)], [None] + [d(n) for n in range(1, top + 1)],
        check=False, present_top=present_top if column._present_top else None,
    )


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
    only, so no B_{top-1}.  Errors name the label, the degree and the first
    failing basis index; a complex given presentations is a quotient, whose
    bB + Bb error adds that the quotient did not kill the twist.  ``column``
    is the first column (C_*, b).

    present_top, when given, is the pending top of column: it also checks
    B.B at top - 2 and bB + Bb at top - 1, then fills presentations[top]
    and B[top-1] in the lists given here.  So B, like dims, b and
    presentations, presents the top on its first read.

    Its total and column homologies are computed once and shared, so ranks
    and bases taken through one reader serve every other.
    """

    def __init__(self, dims, b, B, presentations=None, label="", present_top=None):
        self.column = ChainComplexQ(dims, b, check=False, present_top=present_top)
        self.top = self.column.top
        self._B = B
        self._presentations = presentations
        self.label = label
        self._total_h = self._column_h = None
        check_mixed_identities(
            label or "mixed complex", self.column._d, B,
            range(2, self.top + 1), range(self.top - 1), range(self.top),
            quotient=presentations is not None,
        )

    dims = property(lambda self: self.column.dims)
    b = property(lambda self: self.column.d)

    @property
    def B(self):
        self.column._presented()
        return self._B

    @property
    def presentations(self):
        self.column._presented()
        return self._presentations

    def presentation(self, n):
        """presentations[n], presenting a pending top only for n = top."""
        return self.presentations[n] if n == self.top else self._presentations[n]

    def total_homology(self):
        """Homology of the total complex through the top degree; the same
        HomologyResult on every call."""
        if self._total_h is None:
            self._total_h = homology(total_complex(self))
        return self._total_h

    def column_homology(self):
        """Homology of the first column (C_*, b); the same HomologyResult
        on every call."""
        if self._column_h is None:
            self._column_h = homology(self.column)
        return self._column_h


def quotient_mixed_complex(top, relations, b, B, label, presentation=None):
    """The mixed complex of a graded module divided by relations, through
    degree top >= 1, recording its presentations, its top pending.

    The columns of relations(n) span the relations of degree n, which
    presentation(n), by default ``quotient_by``, divides out; b(n) for
    n >= 1 and B(n) for n < top are the raw operators on the undivided
    modules.  Below the top both descend with the exact well-definedness
    check.  b_top is projected into C_{top-1}, checked to kill
    relations(top), and ranked on coordinates spanning C_top
    (``descended``).  The first read of the top presents C_top, restricts
    b_top to its free columns, descends B_{top-1} and checks the two
    identities that read it (``MixedComplex``).
    Errors name the label and the degree.  B=None builds no B.
    """
    if presentation is None:
        def presentation(n):
            rels = relations(n)
            return quotient_by(rels.rows, rels)

    pres = [presentation(n) for n in range(top)] + [None]

    def descend(name, f, n, m):
        return descend_map(f, pres[n], pres[m], what=f"{name}_{n} of {label}")

    b_down = [None] + [descend("b", b(n), n, n - 1) for n in range(1, top)]
    # the raw b_top is dropped before the relations are built: the two are
    # the largest matrices of a build, and held together they set its peak
    image = pres[top - 1].project(b(top))
    keep, image = descended(image, relations(top), f"b_{top} of {label}")

    B_down = [None] * (top + 1)
    if B is not None:
        B_down[:top - 1] = [descend("B", B(n), n, n + 1) for n in range(top - 1)]

    def present_top():
        # fills pres and B_down, the complex's own lists: a step holding
        # the complex would make a reference cycle through its column
        p = pres[top] = presentation(top)
        b_top = image.select_columns([bisect_left(keep, r) for r in p.free_rows])
        if B is not None:
            B_top = descend("B", B(top - 1), top - 1, top)
            check_mixed_identities(
                label, b_down + [b_top], B_down[:top - 1] + [B_top, None],
                BB=range(max(top - 2, 0), top - 1), bB_Bb=[top - 1], quotient=True,
            )
            B_down[top - 1] = B_top
        return p.quotient_dim, b_top

    dims = [p.quotient_dim for p in pres[:top]] + [image.cols]
    return MixedComplex(dims, b_down + [image], B_down, pres, label, present_top)


def check_chain_map(f_per_degree, src, dst, top):
    """Exact check that f commutes with the differentials through degree top."""
    for n in range(1, top + 1):
        terms = [(1, dst.d[n], f_per_degree[n]), (-1, f_per_degree[n - 1], src.d[n])]
        if first_nonzero_column(terms) is not None:
            raise ChainMapError(f"chain map fails to commute at degree {n}")


def check_mixed_map(f, src, dst, what):
    """Exact check that the maps f[n]: src C_n -> dst C_n, for n through
    the top degree len(f) - 1 of both, commute with b and with B, which
    present a pending top; raises ChainMapError naming what, the operator
    and the first failing degree (b before B)."""
    top = len(f) - 1
    for n in range(1, top + 1):
        if first_nonzero_column([(1, dst.b[n], f[n]), (-1, f[n - 1], src.b[n])]) is not None:
            raise ChainMapError(f"{what} fails b at degree {n}")
    for n in range(top):
        if first_nonzero_column([(1, dst.B[n], f[n]), (-1, f[n + 1], src.B[n])]) is not None:
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
