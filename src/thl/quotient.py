"""Quotient presentations of free Q-modules and maps induced on quotients.

A quotient V/W is presented by the canonical reduced column echelon form
of the relation matrix whose columns span W.  The complement spanned by
the non-pivot coordinates serves as the quotient's coordinate space, which
makes ``projection . section = id`` hold by construction and keeps every
presentation deterministic.
"""

from math import lcm

from .errors import WellDefinednessError
from .sparse import QMatrix, echelon, over_pivots


class QuotientPresentation:
    """V/W with explicit projection and section matrices.

    Attributes:
        ambient_dim: dim V
        quotient_dim: dim V/W
        relation_basis: canonical basis of W (columns)
        projection: (quotient_dim x ambient_dim), kills W
        section: (ambient_dim x quotient_dim), projection @ section = id
        pivot_rows / free_rows: ambient coordinates eliminated / kept
    """

    __slots__ = (
        "ambient_dim",
        "quotient_dim",
        "relation_basis",
        "projection",
        "section",
        "pivot_rows",
        "free_rows",
    )

    def __init__(self, ambient_dim, relation_basis, projection, section, pivot_rows, free_rows):
        self.ambient_dim = ambient_dim
        self.quotient_dim = len(free_rows)
        self.relation_basis = relation_basis
        self.projection = projection
        self.section = section
        self.pivot_rows = pivot_rows
        self.free_rows = free_rows

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
    return _presentation(
        QMatrix.from_integers(ambient_dim, ech, den),
        QMatrix.from_integers(len(free_rows), proj_cols, den),
        pivot_rows,
        free_rows,
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
    projection = second.projection @ first.projection
    free_rows = [first.free_rows[k] for k in second.free_rows]
    kept = set(free_rows)
    pivot_rows = [r for r in range(first.ambient_dim) if r not in kept]
    den = projection.den
    relation_cols = [
        {r: den, **{free_rows[k]: -v for k, v in projection._cols[r].items()}}
        for r in pivot_rows
    ]
    return _presentation(
        QMatrix.from_integers(first.ambient_dim, relation_cols, den),
        projection,
        pivot_rows,
        free_rows,
    )


def _presentation(relation_basis, projection, pivot_rows, free_rows):
    """The presentation with these parts; its section picks the free rows."""
    ambient_dim = projection.cols
    section = QMatrix.from_integers(ambient_dim, [{r: 1} for r in free_rows])
    return QuotientPresentation(
        ambient_dim, relation_basis, projection, section, list(pivot_rows), free_rows
    )


def trivial_quotient(ambient_dim):
    """The identity presentation (no relations)."""
    identity = QMatrix.identity(ambient_dim)
    return QuotientPresentation(
        ambient_dim, QMatrix.zero(ambient_dim, 0), identity, identity, [], list(range(ambient_dim))
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
