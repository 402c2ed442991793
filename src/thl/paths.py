"""The crossed-product operators of a ``crossed.GJOperators`` on one block
(p, q), stated as terms along group-tuple moves, and the exact test of an
operator identity on them without assembling any ambient operator.

Every block of b, B and T is the element block of sigma(gt), and every
block of bbar and Bbar is a twist placed by a move of ``GJOperators.moves``,
so a product of operators is a sum over paths of moves.  Block (h, t) of
Σ c X.Y is the sum, over the paths from t to h, of c times the product of
their element blocks.  The paths with the same whole target array form a
group; grouping only regroups that sum, so testing every group's sum on
every tuple tests every block.  Each group is zero-tested once per
distinct combination of element blocks over the tuples, on element-size
matrices, and only the tuples where some group's sum is nonzero are
evaluated whole.
"""

from .sparse import QMatrix, first_nonzero_column


class BlockTerms:
    """The operators of ops on block (p, q) as terms (c, targets, factors):
    group tuple t goes to targets[t] (t itself when targets is None) with
    sign c and the product of the factors, applied in order; a factor
    (getter, q, xs) is getattr(ops, getter)(x, q), x = xs[t] (xs, when an
    int).  sigma is read from ops._sigmas and the moves from ops.moves, as
    the ambient builders read them."""

    ONE = [(1, None, ())]

    def __init__(self, ops):
        self.ops = ops

    def b(self, p, q):
        return [(1, None, (("alg_b", q, self.ops._sigmas(p, q)),))]

    def B(self, p, q):
        return [(1, None, (("alg_B", q, self.ops._sigmas(p, q)),))]

    def T(self, p, q):
        return [(1, None, (("alg_twist", q, self.ops._sigmas(p, q)),))]

    def bbar(self, p, q):
        return [(c, hs, (("alg_twist", q, xs),)) for c, hs, xs in self.ops.moves("bbar", p, q)]

    def U(self, p, q):
        """U = T.Bbar (p, q) -> (p+1, q): per move of Bbar, its twist, then
        the twist of sigma of the target tuple."""
        sigma = self.ops._sigmas(p + 1, q)
        return [(c, hs, (("alg_twist", q, xs), ("alg_twist", q, [sigma[h] for h in hs])))
                for c, hs, xs in self.ops.moves("Bbar", p, q)]


def _compose(c, X, Y):
    """The terms of c * X.Y, Y applied first, one at a time: the targets
    composed by index, the factors concatenated."""
    for cy, ty, fy in Y:
        for cx, tx, fx in X:
            if ty is not None:
                fx = tuple([(g, q, xs if xs.__class__ is int else [xs[h] for h in ty])
                            for g, q, xs in fx])
                tx = ty if tx is None else [tx[h] for h in ty]
            yield c * cx * cy, tx, fy + fx


def first_residual(ops, terms, p, q):
    """(j, column j as {row: rational}, rows ascending) for the first
    nonzero column j = t * asize + k of the sum on block (p, q) of ops
    whose products terms(BlockTerms(ops), p, q) lists as (c, X, Y), or None
    when the sum is zero.  Columns and rows are numbered as on the ambient
    modules: row i of the element block on target tuple h is row
    h * rows + i.  The outcome of each combination of element blocks and
    each product of element blocks are kept in ops."""
    basis = ops.basis(p, q)
    groups = {}     # targets -> (one copy of them, shared by its paths; the paths)
    for sign, X, Y in terms(BlockTerms(ops), p, q):
        for c, targets, factors in _compose(sign, X, Y):
            key = tuple(range(basis.gsize) if targets is None else targets)
            targets, group = groups.setdefault(key, (key, []))
            group.append((c, targets, factors))
    flagged = set()
    for _, group in groups.values():
        flagged.update(_nonzero_tuples(ops, q, basis, group))
    paths = [path for _, group in groups.values() for path in group]
    for t in sorted(flagged):
        found = _residual(ops, paths, basis.asize, t)
        if found is not None:
            return found
    return None


def _nonzero_tuples(ops, q, basis, group):
    """The indices of the group tuples of basis, block (p, q), on which the
    sum of the paths of group, which share their targets, has a nonzero
    element block.  Each distinct combination of element blocks is
    zero-tested once per operator set, with one first_nonzero_column."""
    shape, arrays = [], []
    for c, _, factors in group:
        blocks = []
        for g, fq, xs in factors:
            if xs.__class__ is int:
                blocks.append((g, fq, xs))
            else:
                blocks.append((g, fq, None))
                arrays.append(xs)
        shape.append((c, tuple(blocks)))
    shape = (q, tuple(shape))
    found = set()
    for combo in set(zip(*arrays)) if arrays else [()]:
        key = ("zero", shape, combo)
        if key not in ops._memo:
            xs = iter(combo)
            terms = []
            for c, keys in shape[1]:
                blocks = tuple([(g, fq, next(xs) if x is None else x) for g, fq, x in keys])
                terms.append(_path_term(ops, basis.asize, c, blocks))
            ops._memo[key] = first_nonzero_column(terms) is not None
        if ops._memo[key]:
            found.add(combo)
    if not found:
        return ()
    return [t for t, x in enumerate(zip(*arrays)) if x in found] if arrays else range(basis.gsize)


def _path_term(ops, asize, c, blocks):
    """The term (c, X, Y) of first_nonzero_column whose X.Y is the product
    of the element blocks (getter, q, x), the first applied first: Y is
    the first, X the product of the others, kept in ops.  No blocks give
    the identity of size asize."""
    mats = [getattr(ops, g)(x, q) for g, q, x in blocks] or [QMatrix.identity(asize)]
    if len(mats) == 1:
        return c, mats[0], QMatrix.identity(mats[0].cols)
    key = ("product", blocks[1:])
    X = mats[1] if len(mats) == 2 else ops._memo.get(key)
    if X is None:
        X = mats[1]
        for m in mats[2:]:
            X = m @ X
        ops._memo[key] = X
    return c, X, mats[0]


def _residual(ops, paths, asize, t):
    """(j, column j, rows ascending) for the first nonzero column j = t *
    asize + k of the sum of the paths on the group tuple t, where row i of
    the element block placed on target tuple h is row h * rows + i; None
    if every column is zero."""
    hs, terms = [], []
    for c, targets, factors in paths:
        blocks = tuple([(g, q, xs if xs.__class__ is int else xs[t]) for g, q, xs in factors])
        hs.append(targets[t])
        terms.append(_path_term(ops, asize, c, blocks))
    low, rows = min(hs), terms[0][1].rows
    span = (max(hs) + 1 - low) * rows
    for k, (h, (c, X, Y)) in enumerate(zip(hs, terms)):
        terms[k] = c, X.shift_rows((h - low) * rows, span), Y
    found = first_nonzero_column(terms)
    if found is None:
        return None
    k, col = found
    return t * asize + k, {low * rows + i: v for i, v in col.items()}
