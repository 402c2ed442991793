"""Group Hochschild homology, the periodicity (SBI) long exact sequence,
group de Rham homology, and the Karoubi sequence, all verified by exact
rank bookkeeping.

Exactness at a node means: the composite of the two adjacent maps is the
zero matrix AND rank(incoming) = dim kernel(outgoing) -- both over Q with
no tolerance.
"""

from typing import NamedTuple

from .algebra import tensor_index, tensor_operator
from .complexes import (
    ChainComplexQ, check_zero, homology, induced_on_homology, quotient_mixed_complex
)
from .crossed import CoinvariantComplex, GJOperators
from .errors import ChainMapError, ComplexError
from .quotient import compose_quotients, descend_map, quotient_by
from .sparse import (
    QMatrix, first_nonzero_column, kernel_basis, nullity, rank, solve_general, solve_in_span
)


def g_hochschild(algebra, group, max_degree):
    """Homology of the first column of the coinvariant bicomplex."""
    return CoinvariantComplex(GJOperators(algebra, group), max_degree).mixed.column_homology()


# ---------------------------------------------------------------------
# the periodicity sequence
# ---------------------------------------------------------------------

class SequenceNode(NamedTuple):
    label: str
    incoming: str
    outgoing: str
    image_dim: int
    kernel_dim: int
    composite_zero: bool

    @property
    def exact(self):
        return self.composite_zero and self.image_dim == self.kernel_dim


SBI_INDEXING_NOTE = (
    "periodicity sequence indexed classically: the map out of HC_{n-2} "
    "lands in HH_{n-1}"
)


def sbi_sequence(coinv):
    """Periodicity long exact sequence of the coinvariant bicomplex coinv.

    Built from the degreewise-split short exact sequence of complexes

        0 -> (first column, b) -> Tot -> Tot[2] -> 0,

    with I the column inclusion, S the column-dropping projection, and the
    connecting map computed by the lift-differentiate-project recipe.
    The nodes HC_n, HC_{n-2} (the shift of HC_n) and HH_n all go through
    one exactness test; S_0, S_1 and the map into HH_0 are zero matrices.
    Returns the list of nodes, indexed as SBI_INDEXING_NOTE says.
    """
    mixed = coinv.mixed
    k = mixed.top
    hcH = mixed.total_homology()
    hhH = mixed.column_homology()
    tot = hcH.complex
    N = k - 1

    # chain-level I: C_n -> Tot_n, whose first block is C_n
    incl = [QMatrix.identity(dim).shift_rows(0, tot.dims[n]) for n, dim in enumerate(mixed.dims)]
    # chain-level S: Tot_n -> Tot_{n-2} drops that block
    proj = {
        n: QMatrix.identity(tot.dims[n]).shift_rows(-mixed.dims[n], tot.dims[n - 2])
        for n in range(2, k + 1)
    }

    # exact chain-map checks (induced_on_homology checks I)
    I_mats = induced_on_homology(incl, hhH, hcH)
    for n in range(3, k + 1):
        terms = [(1, proj[n - 1], tot.d[n]), (-1, tot.d[n - 2], proj[n])]
        if first_nonzero_column(terms) is not None:
            raise ChainMapError(f"shift projection fails at degree {n}")

    def induced_S(n):
        """HC_n -> HC_{n-2}, zero for n < 2."""
        if n < 2:
            return QMatrix.zero(0, hcH.dims[n])
        reps, _ = hcH.representatives(n)
        return hcH.class_coordinates(n - 2, proj[n] @ reps)

    def connecting(n):
        """HC_{n-2} -> HH_{n-1}: lift along the splitting, differentiate,
        read off the first column; zero for n = 1, where HC_{-1} = 0."""
        if n < 2:
            return QMatrix.zero(hhH.dims[0], 0)
        reps, _ = hcH.representatives(n - 2)
        dlift = tot.d[n] @ reps.shift_rows(mixed.dims[n], tot.dims[n])
        first_col = dlift.shift_rows(0, mixed.dims[n - 1])
        if first_col.nnz() != dlift.nnz():
            raise ComplexError(
                "connecting map leaked outside the first column", location=f"degree {n}"
            )
        return hhH.class_coordinates(n - 1, first_col)

    S_mats = {n: induced_S(n) for n in range(N + 1)}
    # the connecting map out of HC_{n-2} lifts into internal degree n, so
    # it exists one step past the reported range, giving the HH_N node too
    D_mats = {n: connecting(n) for n in range(1, N + 2)}

    def node(label, inc, out, incoming, outgoing):
        comp = first_nonzero_column([(1, outgoing, incoming)]) is None
        return SequenceNode(label, inc, out, rank(incoming), nullity(outgoing), comp)

    return (
        [node(f"HC_{n}", f"I_{n}", f"S_{n}", I_mats[n], S_mats[n]) for n in range(N + 1)]
        + [node(f"HC_{n - 2} (shift of HC_{n})", f"S_{n}", f"d_{n}", S_mats[n], D_mats[n])
           for n in range(2, N + 1)]
        + [node(f"HH_{n}", f"d_{n + 1}", f"I_{n}", D_mats[n + 1], I_mats[n])
           for n in range(N + 1)]
    )


# ---------------------------------------------------------------------
# group de Rham homology
# ---------------------------------------------------------------------

def derham_d_ambient(algebra, group, n):
    """d(g | a_0, abar_1, ..) = (g | 1, abar_0, abar_1, ..) on the reduced
    group-indexed modules, before any quotient."""
    return tensor_operator(
        tensor_index(group, algebra, 0, n), tensor_index(group, algebra, 0, n + 1),
        [(0, range(1, n + 1), lambda g, a: [(1, g, (0,) + a)])],
    )


def derham_d(coinv, n):
    """The unit-insertion differential from degree n to n + 1 of the
    coinvariant complex coinv, before abelianization; the descent through
    the orbit quotient is checked exactly."""
    pres = coinv.mixed.presentations
    return descend_map(
        derham_d_ambient(coinv.ops.algebra, coinv.ops.group, n), pres[n], pres[n + 1],
        what=f"derham d_{n}",
    )


class DeRhamComplex:
    """Abelianized coinvariant modules with the unit-insertion differential.

    Degree n carries (k[G] (x) A (x) Abar^n)/G divided by im(d b) + im(b),
    and the top degree of the truncation by im(d b) only (im(b d) lies in
    im(b), so it is not stacked); the differential d raises degree by one.
    ``reduced()`` gives the complex with the degree-0 class of the
    unit-stalk tensor (e | 1) divided out too (the ground field's
    contribution).
    """

    def __init__(self, coinv):
        self.coinv = coinv
        mixed = coinv.mixed
        k = mixed.top
        # d descended to the coinvariant quotient
        self.d_coinv = d_coinv = [derham_d(coinv, n) for n in range(k)] + [None]
        # abelianization: quotient by im(d b) + im(b), by im(d b) alone in
        # the top degree; im(b d) lies in im(b), so it adds nothing
        self.ab = []
        for n in range(k + 1):
            rels = d_coinv[n - 1] @ mixed.b[n] if n >= 1 else QMatrix.zero(mixed.dims[0], 0)
            if n < k:
                rels = rels.hstack(mixed.b[n + 1])
            self.ab.append(quotient_by(mixed.dims[n], rels))
        self.d_ab = [self._descend_d(n) for n in range(k)] + [None]
        self._check_dd(range(k - 1))

    def _descend_d(self, n):
        return descend_map(
            self.d_coinv[n], self.ab[n], self.ab[n + 1], what=f"abelianized d_{n}"
        )

    def _check_dd(self, degrees):
        """d.d = 0 on the abelianized complex, out of each of the degrees."""
        for n in degrees:
            check_zero("d.d", "abelianized complex", n, [(1, self.d_ab[n + 1], self.d_ab[n])])

    def reduced(self):
        """This complex with the class of (e | 1) divided out of degree 0
        and d_0 descended again (checked); the other degrees are shared."""
        coinv = self.coinv
        unit = coinv.ops.basis(0, 0).encode((coinv.ops.group.identity_index,), (0,))
        ab0 = self.ab[0]
        unit_class = ab0.project(coinv.mixed.presentations[0].classes([unit]))
        # a shallow copy: only degree 0 and d_0 are replaced
        out = object.__new__(DeRhamComplex)
        out.__dict__.update(self.__dict__)
        out.ab = [compose_quotients(ab0, quotient_by(ab0.quotient_dim, unit_class))] + self.ab[1:]
        out.d_ab = [out._descend_d(0)] + self.d_ab[1:]
        if coinv.mixed.top > 1:
            out._check_dd([0])
        return out

    def homology(self):
        """Ascending-differential homology via the reversed chain complex.

        A zero module is appended above the top k so that every degree
        0..k - 1 of the original grading is trustworthy.
        """
        k = self.coinv.mixed.top
        dims = [self.ab[k - m].quotient_dim for m in range(k + 1)] + [0]
        diffs = [None]
        for m in range(1, k + 1):
            diffs.append(self.d_ab[k - m])
        diffs.append(QMatrix.zero(dims[k], 0))
        # d.d = 0 was checked on d_ab at construction (and by reduced())
        chain = ChainComplexQ(dims, diffs, check=False)
        return ReversedHomology(homology(chain), k)


class ReversedHomology:
    """Adapter exposing cochain-direction homology in the original grading.

    Degrees run 0..top-1: the top cochain degree has no outgoing
    differential in the truncation, so its homology is not reported.
    """

    def __init__(self, inner, top):
        self.inner = inner
        self.top = top
        self.valid_through = top - 1
        self.dims = [inner.dims[top - n] for n in range(top)]

    def representatives(self, n):
        return self.inner.representatives(self.top - n)

    def boundary_basis(self, n):
        return self.inner.boundary_basis(self.top - n)


def derham_homology(algebra, group, max_degree):
    return DeRhamComplex(CoinvariantComplex(GJOperators(algebra, group), max_degree)).homology()


# ---------------------------------------------------------------------
# the Karoubi sequence
# ---------------------------------------------------------------------

class KaroubiNode(NamedTuple):
    degree: int
    left_injective: bool
    composite_zero: bool
    middle_exact: bool
    hdr_dim: int
    hc_dim: int
    hh_next_dim: int
    left_rank: int
    middle_kernel: int
    diagnostic: str = ""

    @property
    def ok(self):
        return self.left_injective and self.composite_zero and self.middle_exact


def _identity_slot_map(src, dst):
    """Each basis tensor of src to the same tensor of dst; zero where dst
    drops a unit from a reduced slot."""
    return tensor_operator(src, dst, [(0, range(0), lambda g, a: [(1, g, a)])])


def _reduced_to_full_section(ops, n):
    """Canonical inclusion of the reduced group-indexed module into the
    full one: a reduced basis tensor is its own full-module representative."""
    return _identity_slot_map(ops.basis(0, n), ops.basis(0, n, reduced=False))


def _stalkwise_B_full_to_reduced(ops, n):
    """Normalized degree-raise from the full module into the reduced one:
    kill the tensors with a unit in a reduced slot, then apply the
    stalkwise twisted B of ops."""
    return ops.B(0, n) @ _identity_slot_map(ops.basis(0, n, reduced=False), ops.basis(0, n))


def _unit_reduced(connes):
    """The Connes complex connes divided by the unit-stalk tensors
    (e | 1, ..., 1) -- the image of the ground field's own complex -- too,
    with b descended from the ambient operator: the cyclic theory reduced
    relative to k.  Degree n is presented as connes's presentation composed
    with the quotient by the unit's class, which equals dividing by both
    relation spans at once; the top's relations are connes's and the unit."""
    ops, mixed = connes.ops, connes.mixed
    e = ops.group.identity_index

    def unit(n):
        return ops.basis(0, n, reduced=False).encode((e,), (0,) * (n + 1))

    def relations(n):
        rels = connes.relations(n)
        return rels.hstack(QMatrix.from_integers(rels.rows, [{unit(n): 1}]))

    def presentation(n):
        pres = mixed.presentation(n)
        return compose_quotients(pres, quotient_by(pres.quotient_dim, pres.classes([unit(n)])))

    return quotient_mixed_complex(
        mixed.top, relations, lambda n: ops.b(0, n, reduced=False), None,
        "unit-reduced group-indexed Connes complex", presentation,
    )


def _boundary_membership(vectors, hres, n, what):
    """Exact check that columns are boundaries in homology hres at degree n
    (with no boundaries, ``solve_in_span`` accepts only zero columns)."""
    try:
        solve_in_span(hres.boundary_basis(n), vectors)
    except ValueError:
        raise ChainMapError(f"{what}: a relation does not map to a boundary")


def karoubi_sequence(derham, connes):
    """0 -> HDR_n -> HC_n(crossed) -> HH_{n+1} checks for n <= max_degree - 1,
    on the de Rham complex derham of a coinvariant complex and the
    g-coinvariant Connes complex connes of the same degree.

    All three terms are taken reduced relative to the ground field (the
    unit-stalk classes divided out); with the unreduced middle term the
    periodicity class of the unit sits in the kernel of the degree-raising
    map in every even degree >= 2 while the de Rham side has nothing to
    hit it with, so middle exactness is unattainable.  The group
    Hochschild side is already reduced in degrees >= 1 by normalization.

    The left map takes an abelianized class representative to its class in
    the group-indexed Connes complex; the right map applies the normalized
    degree-raising operator.  Every well-definedness obligation is checked
    exactly before ranks are taken.  Returns one KaroubiNode per degree.
    """
    max_degree = derham.coinv.mixed.top - 1
    if not connes.g_coinvariants or connes.mixed.top != derham.coinv.mixed.top:
        raise ValueError(
            f"Karoubi sequence needs the g-coinvariant Connes complex at degree {max_degree}"
        )
    dr = derham.reduced()
    lam = _unit_reduced(connes)
    lamH = lam.column_homology()
    hdrH = dr.homology()
    hhH = derham.coinv.mixed.column_homology()

    nodes = []
    for n in range(max_degree):
        try:
            node = _karoubi_node(n, dr, hdrH, lam, lamH)
        except ChainMapError as exc:
            # every check of the node fails, and the error names the obligation
            node = KaroubiNode(
                n, False, False, False, hdrH.dims[n], lamH.dims[n], hhH.dims[n + 1],
                left_rank=-1, middle_kernel=-1, diagnostic=str(exc),
            )
        nodes.append(node)
    return nodes


def _karoubi_node(n, dr, hdrH, lam, lamH):
    cx = dr.coinv
    hhH = cx.mixed.column_homology()
    # abelianized coordinates -> lambda coordinates, through the reduced
    # module's inclusion into the full one
    to_lambda = lam.presentation(n).project(
        _reduced_to_full_section(cx.ops, n).select_columns(cx.mixed.presentations[n].free_rows)
    )
    rel = dr.ab[n].relation_basis
    if n >= 1:
        d_lam = lam.column.differential(n)
        move = d_lam @ (to_lambda @ rel)

    def lambda_classes(vectors, what):
        """Lambda homology coordinates of abelianized-module vectors,
        choosing within each abelianization class a representative whose
        lambda image is a cycle.

        The correction lives in the span of the abelianization relations;
        the system is solved exactly and fails loudly when no adapted
        representative exists.
        """
        lifted = dr.ab[n].section @ vectors
        if n == 0:
            return lamH.class_coordinates(0, to_lambda @ lifted)
        rhs = -(d_lam @ (to_lambda @ lifted))
        correction = solve_general(move, rhs)
        if correction is None:
            raise ChainMapError(f"{what}: no adapted cycle representative at degree {n}")
        adapted = to_lambda @ (lifted + rel @ correction)
        return lamH.class_coordinates(n, adapted)

    # left map: adapted abelianized representatives -> lambda classes
    reps, _ = hdrH.representatives(n)
    left = lambda_classes(reps, "left map")
    # well-definedness: adapted representatives of zero must be boundaries.
    # The ambiguity space is the kernel of the adapted-cycle system over
    # the relation span; its lambda classes must vanish.
    if n >= 1 and rel.cols:
        closed_rel = to_lambda @ (rel @ kernel_basis(move))
        if not closed_rel.is_zero():
            _boundary_membership(closed_rel, lamH, n, "left map relations")
    bd = hdrH.boundary_basis(n)
    if bd.cols:
        zero_like = lambda_classes(bd, "left map boundaries")
        if not zero_like.is_zero():
            raise ChainMapError("left map boundaries: a boundary maps to a nonzero class")

    # right map: lambda class -> normalized degree raise -> group Hochschild
    raw_right = cx.mixed.presentations[n + 1].project(_stalkwise_B_full_to_reduced(cx.ops, n))
    right_chain = raw_right.select_columns(lam.presentation(n).free_rows)
    lreps, _ = lamH.representatives(n)
    rimages = right_chain @ lreps
    if first_nonzero_column([(1, cx.mixed.b[n + 1], rimages)]) is not None:
        raise ChainMapError(f"degree-raise image is not a cycle at degree {n}")
    lrel = raw_right @ lam.presentation(n).relation_basis
    if not lrel.is_zero():
        _boundary_membership(lrel, hhH, n + 1, "right map relations")
    lbd = lamH.boundary_basis(n)
    if lbd.cols:
        _boundary_membership(right_chain @ lbd, hhH, n + 1, "right map boundaries")
    right = hhH.class_coordinates(n + 1, rimages)

    comp = first_nonzero_column([(1, right, left)]) is None
    lrank = rank(left)
    mker = nullity(right)
    return KaroubiNode(
        degree=n,
        left_injective=(lrank == hdrH.dims[n]),
        composite_zero=comp,
        middle_exact=(lrank == mker),
        hdr_dim=hdrH.dims[n],
        hc_dim=lamH.dims[n],
        hh_next_dim=hhH.dims[n + 1],
        left_rank=lrank,
        middle_kernel=mker,
    )
