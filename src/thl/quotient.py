"""Quotient presentations of free Q-modules and maps induced on quotients.

A quotient V/W is presented by the canonical reduced column echelon form
of the relation matrix whose columns span W.  The non-pivot (free)
coordinates serve as the quotient's coordinate space, which makes
``projection . section = id`` hold by construction and keeps every
presentation deterministic.

A presentation stores only the pivot and free rows and ``pivot_images``,
the classes of the pivot coordinates: a free coordinate is its own class,
so ``project`` applies the projection from these alone, in one pass, and
``descend_map`` projects a map once.  A quotient by nothing stores no
matrix entries.  This module is the only one that builds presentations:
``quotient_by`` from relations, ``trivial_quotient`` for none,
``compose_quotients`` for a quotient of a quotient, and ``direct_sum`` for
a block-diagonal sum.
"""

from bisect import bisect_left
from math import lcm

from .errors import WellDefinednessError
from .sparse import QMatrix, block_diag, echelon, first_nonzero_column, over_pivots


class QuotientPresentation:
    """V/W: the split of the coordinates of V and the classes of the pivots.

    Stored:
        ambient_dim: dim V
        pivot_rows / free_rows: ambient coordinates eliminated / kept
        pivot_images: (quotient_dim x len(pivot_rows)), column k the class
            of coordinate pivot_rows[k]
    Derived when read:
        quotient_dim: dim V/W, the number of free rows
        projection: (quotient_dim x ambient_dim), kills W: the identity on
            the free rows and pivot_images on the pivot rows
        section: (ambient_dim x quotient_dim), the free-row selector, so
            projection @ section = id
        relation_basis: canonical basis of W (columns), reduced echelon:
            column k is e_pivot_rows[k] less column k of pivot_images
            placed on the free rows
    """

    __slots__ = ("ambient_dim", "pivot_rows", "free_rows", "pivot_images")

    def __init__(self, ambient_dim, pivot_rows, free_rows, pivot_images):
        self.ambient_dim = ambient_dim
        self.pivot_rows = pivot_rows
        self.free_rows = free_rows
        self.pivot_images = pivot_images

    @property
    def quotient_dim(self):
        return len(self.free_rows)

    def project(self, m):
        """projection @ m, one pass per column: a free entry lands at its free
        position, v on pivot row k adds v times column k of pivot_images."""
        if m.rows != self.ambient_dim:
            raise ValueError(f"cannot project {m.rows} rows onto V of dim {self.ambient_dim}")
        piv = self.pivot_rows
        if not piv:
            return m
        # pivot and free rows split range(ambient_dim), both ascending: row r
        # with k pivot rows below it is pivot k, or else free row r - k
        images, den = self.pivot_images._cols, self.pivot_images.den
        cols = []
        for c in m._cols:
            out = {}
            for r, v in c.items():
                k = bisect_left(piv, r)
                if k < len(piv) and piv[k] == r:
                    for i, w in images[k].items():
                        out[i] = out.get(i, 0) + v * w
                else:
                    out[r - k] = out.get(r - k, 0) + v * den
            cols.append(out)
        return QMatrix.from_integers(len(self.free_rows), cols, m.den * den)

    def classes(self, rows):
        """The classes of the ambient coordinates rows, as columns."""
        return self.project(_coordinates(self.ambient_dim, rows))

    @property
    def projection(self):
        return self.classes(range(self.ambient_dim))

    @property
    def section(self):
        return _coordinates(self.ambient_dim, self.free_rows)

    @property
    def relation_basis(self):
        images, den, free = self.pivot_images._cols, self.pivot_images.den, self.free_rows
        cols = []
        for r, image in zip(self.pivot_rows, images):
            col = {r: den}
            for i, v in image.items():
                col[free[i]] = -v
            cols.append(col)
        return QMatrix.from_integers(self.ambient_dim, cols, den)

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
    # canonical reduced column echelon of the relation span: column k is
    # e_{pivot_rows[k]} plus a free part, which is minus that pivot's class
    pivot_rows, ech = echelon(relations.transpose())
    den, scales = over_pivots(pivot_rows, ech)
    pivot_set = set(pivot_rows)
    free_rows = [i for i in range(ambient_dim) if i not in pivot_set]
    free_pos = {r: k for k, r in enumerate(free_rows)}
    images = [
        {free_pos[i]: -s * v for i, v in r.items() if i in free_pos}
        for r, s in zip(ech, scales)
    ]
    return QuotientPresentation(
        ambient_dim, pivot_rows, free_rows, QMatrix.from_integers(len(free_rows), images, den)
    )


def compose_quotients(first, second):
    """V / (W1 + W2) from first = V / W1 and second, a quotient of first's
    coordinates by the image of W2.

    Equal to quotient_by of the stacked relations: the composite projection
    kills both spans and is the identity on the kept coordinates, which are
    the free rows of first that second keeps, so it is the canonical one;
    its pivot columns are the classes of the other coordinates.
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
    return QuotientPresentation(
        first.ambient_dim, pivot_rows, free_rows, second.project(first.classes(pivot_rows))
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
        off, pivot_rows, free_rows, block_diag([p.pivot_images for p in parts])
    )


def trivial_quotient(ambient_dim):
    """The identity presentation (no relations)."""
    return QuotientPresentation(
        ambient_dim, [], list(range(ambient_dim)), QMatrix.zero(ambient_dim, 0)
    )


def _coordinates(dim, rows):
    """The dim x len(rows) matrix whose column k is e_{rows[k]}."""
    return QMatrix.from_integers(dim, [{r: 1} for r in rows])


def descend_map(f, src, dst, what="map"):
    """Induce f, from src ambient to dst ambient, on quotient coordinates:
    f(src relations) must land in the span of dst relations, checked
    exactly by ``descended`` of dst.project(f) on src.relation_basis, whose
    lowest rows are the pivot rows of src, so its result is on src.free_rows.
    """
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise ValueError("map shape does not match the presentations")
    return descended(dst.project(f), src.relation_basis, what)[1]


def descended(projected, relations, what="map"):
    """(rows, projected on the columns rows) for projected, a map from V
    into a quotient, checked exactly to kill the relations, columns
    spanning W: it descends to V/W, and rows span V/W.  They are all but
    the lowest row r of each relation, which puts e_r in the span of higher
    ones; each r is a pivot row of V/W's canonical presentation, whose free
    rows are thus kept.  Otherwise raises WellDefinednessError naming the
    first relation not killed, its lowest (pivot) coordinate, and its
    image.
    """
    found = first_nonzero_column([(1, projected, relations)])
    if found is not None:
        j, col = found
        raise WellDefinednessError(
            f"{what} does not descend to the quotient: the relation projects to {col}",
            location=f"relation column {j} (pivot coordinate {min(relations._cols[j])})",
        )
    lowest = {min(c) for c in relations._cols if c}
    if not lowest:
        return range(relations.rows), projected
    rows = [r for r in range(relations.rows) if r not in lowest]
    return rows, projected.select_columns(rows)


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
