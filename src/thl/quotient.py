"""Quotient presentations of free Q-modules and maps induced on quotients.

A quotient V/W is presented by the canonical reduced column echelon form
of the relation matrix whose columns span W.  The non-pivot (free)
coordinates serve as the quotient's coordinate space, which makes
``projection . section = id`` hold by construction and keeps every
presentation deterministic.

A presentation stores only what it cannot derive: the relation basis, the
pivot and free rows, and the projection when there are pivot rows.  The
section, which only selects the free rows, and the identity projection of
an empty relation span are built when read; ``descend_map`` needs
neither.  This module is the only one that builds presentations:
``quotient_by`` from relations, ``trivial_quotient`` for none,
``compose_quotients`` for a quotient of a quotient, and ``direct_sum``
for a block-diagonal sum.
"""

from math import lcm

from .errors import WellDefinednessError
from .sparse import QMatrix, block_diag, echelon, over_pivots


class QuotientPresentation:
    """V/W: the canonical basis of W and the split of the coordinates of V.

    Stored:
        ambient_dim: dim V
        relation_basis: canonical basis of W (columns), reduced echelon
        pivot_rows / free_rows: ambient coordinates eliminated / kept
    Derived when read:
        quotient_dim: dim V/W, the number of free rows
        projection: (quotient_dim x ambient_dim), kills W; stored only when
            there are pivot rows, the identity otherwise
        section: (ambient_dim x quotient_dim), the free-row selector, so
            projection @ section = id
    """

    __slots__ = ("ambient_dim", "relation_basis", "pivot_rows", "free_rows", "_projection")

    def __init__(self, ambient_dim, relation_basis, pivot_rows, free_rows, projection=None):
        self.ambient_dim = ambient_dim
        self.relation_basis = relation_basis
        self.pivot_rows = list(pivot_rows)
        self.free_rows = free_rows
        self._projection = projection

    @property
    def quotient_dim(self):
        return len(self.free_rows)

    @property
    def projection(self):
        if self._projection is None:
            return QMatrix.identity(self.ambient_dim)
        return self._projection

    @property
    def section(self):
        return QMatrix.from_integers(self.ambient_dim, [{r: 1} for r in self.free_rows])

    def __repr__(self):
        return f"QuotientPresentation({self.ambient_dim} -> {self.quotient_dim})"


def quotient_by(ambient_dim, relations):
    """Present the quotient of Q^ambient_dim by the column span of relations."""
    if relations.rows != ambient_dim:
        raise ValueError("relation matrix has wrong number of rows")
    if relations.is_zero():
        return trivial_quotient(ambient_dim)
    return _echelon_presentation(ambient_dim, relations)


def _echelon_presentation(ambient_dim, relations):
    """quotient_by through the reduced echelon form of the relation span."""
    # canonical reduced column echelon of the relation span, over den: column
    # k is den at row pivot_rows[k] and zero on the other pivot rows
    pivot_rows, ech = echelon(relations.transpose())
    den, scales = over_pivots(pivot_rows, ech)
    pivot_set = set(pivot_rows)
    free_rows = [i for i in range(ambient_dim) if i not in pivot_set]
    free_pos = {r: k for k, r in enumerate(free_rows)}
    # projection of e_j: a free row is kept, a pivot row is minus the free
    # part of its echelon column
    proj_cols = [{free_pos[j]: den} if j in free_pos else None for j in range(ambient_dim)]
    for j, r, s in zip(pivot_rows, ech, scales):
        proj_cols[j] = {free_pos[i]: -s * v for i, v in r.items() if i in free_pos}
    if den != 1:
        ech = [{i: s * v for i, v in r.items()} for r, s in zip(ech, scales)]
    return QuotientPresentation(
        ambient_dim,
        QMatrix.from_integers(ambient_dim, ech, den),
        pivot_rows,
        free_rows,
        QMatrix.from_integers(len(free_rows), proj_cols, den),
    )


def compose_quotients(first, second):
    """V / (W1 + W2) from first = V / W1 and second, a quotient of first's
    coordinates by the image of W2.

    Equal to quotient_by of the stacked relations: the projection kills
    both spans and is the identity on the kept coordinates, which are the
    free rows of first that second keeps, so it is the canonical one; each
    relation column is a pivot coordinate minus the section of its
    projection, the reduced echelon column of that pivot.
    """
    if second.ambient_dim != first.quotient_dim:
        raise ValueError("second presentation does not divide the first's quotient")
    # a presentation with no relations adds none, and both are canonical
    if not first.pivot_rows:
        return second
    if not second.pivot_rows:
        return first
    free_rows = [first.free_rows[k] for k in second.free_rows]
    kept = set(free_rows)
    pivot_rows = [r for r in range(first.ambient_dim) if r not in kept]
    projection = second.projection @ first.projection
    den = projection.den
    relation_cols = [
        {r: den, **{free_rows[k]: -v for k, v in projection._cols[r].items()}}
        for r in pivot_rows
    ]
    return QuotientPresentation(
        first.ambient_dim,
        QMatrix.from_integers(first.ambient_dim, relation_cols, den),
        pivot_rows,
        free_rows,
        projection,
    )


def direct_sum(parts):
    """The block-diagonal direct sum of presentations, in order.

    Equal to quotient_by of the block-diagonal relations: the reduced
    echelon form of a direct sum is the direct sum of the echelon forms.
    """
    pivot_rows = []
    free_rows = []
    off = 0
    for p in parts:
        pivot_rows.extend(off + r for r in p.pivot_rows)
        free_rows.extend(off + r for r in p.free_rows)
        off += p.ambient_dim
    return QuotientPresentation(
        off,
        block_diag([p.relation_basis for p in parts]),
        pivot_rows,
        free_rows,
        block_diag([p.projection for p in parts]) if pivot_rows else None,
    )


def trivial_quotient(ambient_dim):
    """The identity presentation (no relations)."""
    return QuotientPresentation(
        ambient_dim, QMatrix.zero(ambient_dim, 0), [], list(range(ambient_dim))
    )


def descend_map(f, src, dst, what="map"):
    """Induce f on quotient coordinates, checking well-definedness exactly.

    f maps src ambient to dst ambient.  Requires f(src relations) to land in
    the span of dst relations; otherwise raises WellDefinednessError naming
    the first offending relation column.

    The section only selects the free coordinates, and a presentation with
    no relations has an identity projection, so neither is multiplied out.
    """
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise ValueError("map shape does not match the presentations")
    if src.relation_basis.cols:
        moved = _project(dst, f @ src.relation_basis)
        for j in range(moved.cols):
            if moved._cols[j]:
                raise WellDefinednessError(
                    f"{what} does not descend to the quotient",
                    location=f"relation column {j}",
                )
    if src.pivot_rows:
        f = f.select_columns(src.free_rows)
    return _project(dst, f)


def _project(pres, m):
    """pres.projection @ m, skipping the product when the projection is the identity."""
    return pres.projection @ m if pres.pivot_rows else m


def coinvariant_relations(dim, operators):
    """Relation columns {m - op(m)} for every basis m and every operator.

    operators: list of (dim x dim) QMatrix.  Used for group coinvariants,
    (1-T) quotients, and friends.  Zero columns (op(m) = m) span nothing and
    are left out, so an identity operator adds no relation to row-reduce.
    """
    den = lcm(*[op.den for op in operators])
    cols = []
    for op in operators:
        s = den // op.den
        for j, c in enumerate(op._cols):
            col = {r: -s * v for r, v in c.items()}
            d = col.get(j, 0) + den
            if d:
                col[j] = d
            else:
                del col[j]
            if col:
                cols.append(col)
    return QMatrix.from_integers(dim, cols, den)
