"""Group-extended tensor operators for a group acting on an algebra, the
quotient bicomplex computing HC of the crossed product, the coinvariant
bicomplex, its conjugacy-class stalk decomposition, the comparison map
from a single twisted theory, and the group-indexed Connes complex, whose
stalk at g is the twisted Connes complex of g^{-1}.

Module conventions (machine-checked per instance):

* block (p, q) is k[G^{p+1}] (x) A (x) Abar^q, group tuple major;
* on the block of (g_0, ..., g_p) the algebra-direction operators b, B and
  the twist T act through sigma = (g_0 ... g_p)^{-1}, the inverse of the
  tuple product.  With sigma the Connes identity bB + Bb = 1 - T holds on
  the nose; the variant twisting by the product itself spans the same
  relation subspace, so the (1 - T) quotients agree either way;
* the group-direction operators carry the Koszul sign (-1)^q of the
  algebra degree they act past:

  bbar(g_0..g_p | a) = (-1)^q [ sum_i (-1)^i (g_0.., g_i g_{i+1}, ..g_p | a)
                       + (-1)^p (g_p g_0, .., g_{p-1} | g_p(a)) ],
  Bbar(g_0..g_p | a) = (-1)^q sum_i (-1)^{ip}
                       (e, g_{p-i+1}, .., g_p, g_0, .., g_{p-i} | h_i(a)),
  with h_i = g_{p-i+1} ... g_p.  Without the Koszul sign the unsigned sums
  commute with b and B instead of anticommuting; with it, b bbar + bbar b
  = 0 and bbar B + B bbar = 0 hold on the nose, so (b + bbar) squares to
  zero with no further block adjustment.

b, B and T are block diagonal in the per-element operators of
``twisted.TwistedOperators``, one instance per group element; bbar and
Bbar are block matrices over the group tuples whose blocks are signed sums
of those elements' twists, placed by one scatter constructor from their
moves, whose targets are computed from the digits of the tuple index.
The identity checks build none of these ambient operators: they state
each operator on a block as terms along its moves, one element block per
group tuple, and zero-test every identity on element blocks along paths
of moves (``paths``).  The crossed-product quotient is placed by the
scatter constructor from element blocks on the non-degenerate group
tuples, each block descended once from one element's (1 - T) quotient to
another's.  The quotients by the group and by a centralizer take their
relations from a generating set of it.
"""

from math import lcm
from types import SimpleNamespace

from .algebra import conjugacy_data, generators, tensor_index, tensor_operator
from .complexes import (
    MixedComplex, check_mixed_map, induced_on_homology, quotient_mixed_complex, total_map,
)
from .errors import ChainMapError, ComplexError, WellDefinednessError
from .quotient import coinvariant_relations, descend_map, direct_sum
from .sparse import QMatrix, block_diag, block_matrix, first_nonzero_column, kron, rank
from .twisted import TwistedOperators, cyclic_operator


class GJOperators:
    """Per-(p, q) operator matrices on the GJ modules, reduced unless asked
    for full slots, the per-element blocks and group-direction moves they
    are placed from, and the outcomes of the operator identities, which are
    checked on those element blocks (``check_identity``).

    Every value is built on first use and kept in one memo on the instance,
    so it lives exactly as long as the operator set: with the blocks, the
    outcome of each identity per block, of each zero test per combination
    of element blocks, and each product of element blocks.  The
    per-element operators are built once per group element: the twist, b
    and B are kept here, the (1 - T) presentation in the element's
    ``TwistedOperators``.
    """

    def __init__(self, algebra, group):
        self.algebra = algebra
        self.group = group
        self._memo = {}

    def _kept(self, key, build):
        """The value kept under key, built by build() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- per-element algebra-direction blocks --------------------------

    def element(self, elem):
        """The twisted operators of the group element elem."""
        return self._kept(
            ("element", elem), lambda: TwistedOperators(self.algebra, self.group.action[elem])
        )

    def alg_twist(self, elem, q, reduced=True):
        return self._kept(
            ("alg_twist", elem, q, reduced), lambda: self.element(elem).twist(q, reduced)
        )

    def alg_b(self, elem, q, reduced=True):
        return self._kept(("alg_b", elem, q, reduced), lambda: self.element(elem).b(q, reduced))

    def alg_B(self, elem, q):
        return self._kept(("alg_B", elem, q), lambda: self.element(elem).B(q))

    # -- bases ----------------------------------------------------------

    def basis(self, p, q, reduced=True):
        """Basis of block (p, q); reduced=False keeps the unit in every slot."""
        return self._kept(
            ("basis", p, q, reduced), lambda: tensor_index(self.group, self.algebra, p, q, reduced)
        )

    def _sigma(self, gtuple):
        return self.group.inverse[self.group.product(gtuple)]

    def _sigmas(self, p, q):
        """sigma(gt) for the group tuples gt of block (p, q), in order; the
        same list for every q."""
        return self._kept(
            ("sigmas", p), lambda: [self._sigma(gt) for gt in self.basis(p, q).iter_group()]
        )

    def _stalkwise(self, name, block, p, q, *flags):
        """Block diagonal over the group tuples gt of block (p, q) of
        block(sigma(gt), q, *flags), kept under name."""
        return self._kept((name, p, q, *flags), lambda: block_diag(
            [block(s, q, *flags) for s in self._sigmas(p, q)]
        ))

    # -- operators --------------------------------------------------------

    def T(self, p, q):
        return self._stalkwise("T", self.alg_twist, p, q)

    def b(self, p, q, reduced=True):
        """Vertical face sum (p, q) -> (p, q-1); needs q >= 1."""
        if q < 1:
            raise ValueError("b needs q >= 1")
        return self._stalkwise("b", self.alg_b, p, q, reduced)

    def B(self, p, q):
        return self._stalkwise("B", self.alg_B, p, q)

    def moves(self, name, p, q):
        """The terms of the group-direction operator name, "bbar" or "Bbar",
        on block (p, q), the Koszul sign included: per term (c, targets,
        twists), sending the group tuple of index t in G^{p+1} to the tuple
        of index targets[t] with sign c and the twist of twists[t] (of
        twists, when an int).  The targets and twists depend on (name, p)
        only and are kept; q sets the Koszul sign."""
        koszul = -1 if q % 2 else 1
        return [(koszul * c, hs, xs)
                for c, hs, xs in self._kept(("moves", name, p), lambda: self._moves(name, p))]

    def _moves(self, name, p):
        """The terms of moves(name, p, 0).  Each target is computed from the
        digits of t (slot 0 the most significant), so no tuple is built, and
        taken from a table of the target indices, so the kept arrays share
        one int per index."""
        grp = self.group
        r, e = grp.order, grp.identity_index
        n = r ** (p + 1)
        if name == "bbar":
            if p == 0:
                return []
            idx = list(range(n // r))
            mul = [grp.mul(a, b) for a in range(r) for b in range(r)]
            out = []
            for i in range(p):
                # slots i, i + 1 merge: t = (head, g_i, g_{i+1}, tail)
                lo = r ** (p - i - 1)
                out.append((-1 if i % 2 else 1, [
                    idx[t // (lo * r * r) * (lo * r) + mul[t // lo % (r * r)] * lo + t % lo]
                    for t in range(n)
                ], e))
            # the wrap move (g_p g_0, g_1, ..., g_{p-1}) twists by g_p
            mid = r ** (p - 1)
            out.append((-1 if p % 2 else 1, [
                idx[mul[t % r * r + t // (mid * r)] * mid + t // r % mid] for t in range(n)
            ], list(range(r)) * (n // r)))
            return out
        # term i rotates the last i slots to the front after e and twists
        # by their product
        idx = list(range(n * r))
        out = []
        for i, prods in enumerate(_tuple_products(grp, p)):
            head = r ** i
            out.append((-1 if i * p % 2 else 1, [
                idx[e * n + t % head * (n // head) + t // head] for t in range(n)
            ], [prods[t % head] for t in range(n)]))
        return out

    def _group_blocks(self, rows, cols, parts):
        """The rows x cols map that places, for each part (sources, moves,
        targets, block), source (t, o, s) and term (c, hs, xs) of moves,
        c * block(s, s2, x) at row offset ro and column offset o, where
        (ro, s2) = targets[hs[t]] and x = xs[t] (xs, when an int); a target
        None drops the term.  t is a group tuple index, s and s2 name the
        stalks of source and target (None on the ambient modules), and two
        terms landing on one block are added.

        Each block is built on first use in its part and its entries are
        expanded once; the columns are accumulated over the denominator of
        each block, with the row keys of one row table, and the sums over
        different denominators are added over their lcm at the end."""
        idx = list(range(rows))
        sums = {}       # den -> integer columns over it
        for sources, moves, targets, block in parts:
            entries = {}    # (c, s, s2, x) -> (columns, [(column, row, integer)])
            for t, o, s in sources:
                for c, hs, xs in moves:
                    placed = targets[hs[t]]
                    if placed is None:
                        continue
                    ro, s2 = placed
                    x = xs if xs.__class__ is int else xs[t]
                    es = entries.get((c, s, s2, x))
                    if es is None:
                        m = block(s, s2, x)
                        out = sums.get(m.den)
                        if out is None:
                            out = sums[m.den] = [{} for _ in range(cols)]
                        es = entries[(c, s, s2, x)] = (out, [
                            (k, i, c * v) for k, col in enumerate(m._cols) for i, v in col.items()
                        ])
                    out, es = es
                    for k, i, v in es:
                        col = out[o + k]
                        i = idx[i + ro]
                        col[i] = col.get(i, 0) + v
        den = lcm(*sums)
        cols_out = None
        for d, out in sums.items():
            s = den // d
            if cols_out is None:
                cols_out = out
                if s != 1:
                    for col in out:
                        for i in col:
                            col[i] *= s
                continue
            for col, add in zip(cols_out, out):
                for i, v in add.items():
                    col[i] = col.get(i, 0) + s * v
        return QMatrix.from_integers(rows, cols_out or [{} for _ in range(cols)], den)

    def _ambient(self, name, p, p_dst, q):
        """The group-direction operator name from block (p, q) to (p_dst, q)
        on the ambient modules: every block a signed twist."""
        src, dst = self.basis(p, q), self.basis(p_dst, q)
        sources = [(t, t * src.asize, None) for t in range(src.gsize)]
        targets = [(h * dst.asize, None) for h in range(dst.gsize)]
        return self._group_blocks(dst.size, src.size, [(
            sources, self.moves(name, p, q), targets, lambda s, s2, x: self.alg_twist(x, q)
        )])

    def bbar(self, p, q):
        """Group-direction boundary (p, q) -> (p-1, q); zero map at p = 0.
        The inner moves carry the identity, the wrap move the twist of g_p."""

        def build():
            if p == 0:
                return QMatrix.zero(0, self.basis(p, q).size)
            return self._ambient("bbar", p, p - 1, q)

        return self._kept(("bbar", p, q), build)

    def Bbar(self, p, q):
        """Group-direction degree raise (p, q) -> (p+1, q); term i carries
        the twist of h_i = g_{p-i+1} ... g_p."""
        return self._kept(("Bbar", p, q), lambda: self._ambient("Bbar", p, p + 1, q))

    def identity(self, name, p, q):
        """Outcome of the identity name of IDENTITIES on block (p, q): "" if
        it holds, else the first residual column, named by its tensor."""
        return self._kept(("identity", name, p, q), lambda: check_identity(self, name, p, q))


def _tuple_products(group, slots):
    """For s = 0, ..., slots, the products g_0 ... g_{s-1} of the tuples of
    G^s by index (slot 0 the most significant digit)."""
    out = [[group.identity_index]]
    for _ in range(slots):
        out.append([group.mul(a, x) for a in range(group.order) for x in out[-1]])
    return out


def beta_map(algebra, group, p, q):
    """The regrouping bijection (g_0..g_p | a) -> (g_1..g_p, g_0...g_p | a).

    Permutation matrix from k[G^{p+1}] (x) A^{(q+1)} to
    k[G^p] (x) (k[G] (x) A^{(q+1)}), both enumerated group-major.
    """
    if p < 1:
        raise ValueError("beta needs p >= 1")
    basis = tensor_index(group, algebra, p, q, reduced=False)
    return tensor_operator(
        basis, basis, [(0, range(q + 1), lambda gt, _: [(1, gt[1:] + (group.product(gt),), ())])]
    )


# ---------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------

def _bB(o, p, q):
    """The terms of bB + Bb on block (p, q)."""
    terms = [(1, o.b(p, q + 1), o.B(p, q))]
    return terms + [(1, o.B(p, q - 1), o.b(p, q))] if q >= 1 else terms


# name -> (p_min, q_min, terms): the identity is checked on the blocks
# (p, q) with p >= p_min and q >= q_min, where terms(o, p, q) lists the
# (c, X, Y) whose sum of c * X.Y must vanish there, a right side entering
# negated (1 - T as (-1, 1, 1), (1, T, 1)).  X and Y are the operator terms
# of a paths.BlockTerms o, so each product is a sum of paths along group
# tuples, and check_identity tests it on element blocks.
IDENTITIES = {
    "b^2=0": (0, 2, lambda o, p, q: [(1, o.b(p, q - 1), o.b(p, q))]),
    "B^2=0": (0, 0, lambda o, p, q: [(1, o.B(p, q + 1), o.B(p, q))]),
    "bbar^2=0": (2, 0, lambda o, p, q: [(1, o.bbar(p - 1, q), o.bbar(p, q))]),
    "bB+Bb=1-T": (0, 0, lambda o, p, q: _bB(o, p, q) + [
        (-1, o.ONE, o.ONE), (1, o.T(p, q), o.ONE)]),
    "bbarB+Bbbar=0": (1, 0, lambda o, p, q: [
        (1, o.bbar(p, q + 1), o.B(p, q)), (1, o.B(p - 1, q), o.bbar(p, q))]),
    "[T,b]=0": (0, 1, lambda o, p, q: [
        (1, o.T(p, q - 1), o.b(p, q)), (-1, o.b(p, q), o.T(p, q))]),
    "[T,bbar]=0": (1, 0, lambda o, p, q: [
        (1, o.T(p - 1, q), o.bbar(p, q)), (-1, o.bbar(p, q), o.T(p, q))]),
    "[T,B]=0": (0, 0, lambda o, p, q: [
        (1, o.T(p, q + 1), o.B(p, q)), (-1, o.B(p, q), o.T(p, q))]),
    "b.bbar+bbar.b=0": (1, 1, lambda o, p, q: [
        (1, o.b(p - 1, q), o.bbar(p, q)), (1, o.bbar(p, q - 1), o.b(p, q))]),
    # the parts of the full boundary pair that the suite does not check:
    # the (p, q) -> (p, q) part of D.F + F.D for D = b + bbar, F = B + U
    "bB+Bb+bbarU+Ubbar=0": (0, 0, lambda o, p, q: _bB(o, p, q) + [
        (1, o.bbar(p + 1, q), o.U(p, q))] + ([(1, o.U(p - 1, q), o.bbar(p, q))] if p else [])),
    "bU+Ub=0": (0, 1, lambda o, p, q: [
        (1, o.b(p + 1, q), o.U(p, q)), (1, o.U(p, q - 1), o.b(p, q))]),
}

# the identities that are block diagonal in the group tuples, read at p = 0
STALKWISE = frozenset(("b^2=0", "B^2=0", "bB+Bb=1-T", "[T,b]=0", "[T,B]=0"))

SUITE = ("b^2=0", "B^2=0", "bbar^2=0", "bB+Bb=1-T", "bbarB+Bbbar=0",
         "[T,b]=0", "[T,bbar]=0", "[T,B]=0", "b.bbar+bbar.b=0")

# D = b + bbar and F = B + T.Bbar: D.D = 0 and D.F + F.D = 0, each as the
# identities of its block components
FULL_PAIR = (
    ("(b+bbar)^2=0", ("b^2=0", "bbar^2=0", "b.bbar+bbar.b=0")),
    ("(b+bbar)(B+TBbar)+(B+TBbar)(b+bbar)=0",
     ("bB+Bb+bbarU+Ubbar=0", "bU+Ub=0", "bbarB+Bbbar=0")),
)


def check_identity(ops, name, p, q):
    """Evaluate the identity name on block (p, q) of ops; GJOperators.identity
    keeps the outcome, so each block is evaluated once per operator set.
    The sum is tested on element blocks along group-tuple paths
    (``paths.first_residual``), a module imported on first use, so that
    the pipelines that check no identity do not compile it."""
    from .paths import first_residual

    found = first_residual(ops, IDENTITIES[name][2], p, q)
    if found is None:
        return ""
    j, col = found
    return (
        f"first residual at (p,q)=({p},{q}) on "
        f"{ops.basis(p, q).label(j, ops.group, ops.algebra)}: {col}"
    )


def _outcomes(ops, name, bound):
    """Outcomes of identity name on every block with p + q <= bound that it
    is checked on, by total degree, then p."""
    p_min, q_min, _ = IDENTITIES[name]
    if name in STALKWISE:
        # block (p, q) holds the element blocks of sigma(gt), gt in G^{p+1},
        # and sigma is onto for every p: it fails exactly when block (0, q),
        # which comes first, does
        return [ops.identity(name, 0, q) for q in range(q_min, bound + 1)]
    return [
        ops.identity(name, p, s - p)
        for s in range(bound + 1)
        for p in range(p_min, s - q_min + 1)
    ]


def identity_suite(ops, bound):
    """The exact operator identities of ops on every block with p + q <= bound.

    Returns (name, ok, detail) triples with stable names; on failure the
    detail names the first offending block and basis tensor.
    """
    out = []
    for name in SUITE:
        detail = next((d for d in _outcomes(ops, name, bound) if d), "")
        out.append((name, not detail, detail))
    return out


def full_pair_check(ops, bound):
    """Construction-time identities of the full boundary pair of ops.

    D = b + bbar and the degree-raising candidate F = B + T.Bbar satisfy
    D.D = 0 and D.F + F.D = 0 exactly on the truncation (the two
    anticommutators trade 1 - T against its negative).  F.F does not
    vanish, which is why the homology pipeline runs through the quotient
    bicomplex with F replaced by B.

    The block outcomes are those of ops.identity, shared with
    identity_suite and with every other check on the same operator set.
    """
    return tuple(
        (name, not any(d for part in parts for d in _outcomes(ops, part, bound)))
        for name, parts in FULL_PAIR
    )


# ---------------------------------------------------------------------
# quotient pipelines
# ---------------------------------------------------------------------

class PropositionComplex:
    """The quotient bicomplex of the crossed-product theory, normalized in
    the group direction.

    Degree n collects the blocks (p, n - p), ascending p, and block p runs
    over the non-degenerate group tuples gt = (g_0, ..., g_p), those with
    g_i != e for i >= 1, in index order.  Each tuple carries the quotient
    of its stalk by (1 - T): the presentation of the element sigma(gt) of
    degree n - p, so ``mixed.presentations[n]`` lists those of degree n's
    tuples in order, and the module is their direct sum.  The degenerate
    tuples span a subcomplex, checked at construction to be closed under
    b + bbar (b and B keep every tuple), which is row-acyclic over Q
    (normalization theorem: Loday, *Cyclic Homology*, 1.6), so dividing it
    out keeps the total homology.

    b + bbar and B are placed from element blocks, each descended once,
    with its exact check, through the presentations it joins: b and B of
    sigma(gt) on the diagonal, and for a move (c, h, x) of bbar from gt the
    twist of x from the stalk of sigma(gt) to that of sigma(h).  Moves onto
    degenerate tuples are dropped.  The full boundary pair is checked on the
    ambient operators of ops through total degree 2, and the mixed
    identities on the assembled quotient.
    """

    def __init__(self, ops, max_degree):
        self.ops = ops
        k = max_degree + 1
        label = f"crossed-product quotient bicomplex (N={max_degree})"

        for name, ok in full_pair_check(ops, min(k, 2)):
            if not ok:
                raise ComplexError(f"full boundary pair identity failed: {name}")

        group = ops.group
        r, e = group.order, group.identity_index
        sigma = [[group.inverse[x] for x in prods] for prods in _tuple_products(group, k + 1)]
        # presented by ascending degree, so that each twist power is handed on
        pres = [[ops.element(s).presentation(q, q == k) for s in range(r)] for q in range(k + 1)]
        nondeg = [range(r)]
        for p in range(1, k + 1):
            nondeg.append([t * r + g for t in nondeg[-1] for g in range(r) if g != e])

        # per degree n and block p: the sources (t, offset, sigma) of its
        # non-degenerate tuples, and per tuple index the (offset, sigma) it
        # is placed at, None for a degenerate one
        sources, places, dims, stalks = [], [], [], []
        for n in range(k + 1):
            off, src, place, parts = 0, [], [], []
            for p in range(n + 1):
                sig = sigma[p + 1]
                at = [None] * r ** (p + 1)
                tuples = []
                for t in nondeg[p]:
                    s = sig[t]
                    at[t] = (off, s)
                    tuples.append((t, off, s))
                    parts.append(pres[n - p][s])
                    off += pres[n - p][s].quotient_dim
                src.append(tuples)
                place.append(at)
            sources.append(src)
            places.append(place)
            dims.append(off)
            stalks.append(parts)

        blocks = {}

        def descended(key, f, src, dst, what):
            """The element block f() from the presentation src to dst,
            descended once."""
            if key not in blocks:
                blocks[key] = descend_map(f(), src, dst, what=what)
            return blocks[key]

        def diagonal(name, n, m, what):
            """The parts of the map name of the elements ("alg_b" or "alg_B")
            from degree n to m, which keeps every tuple and its block p."""
            f = getattr(ops, name)
            return [
                (sources[n][p], [(1, range(r ** (p + 1)), e)], places[m][p],
                 lambda s, _, __, q=n - p: descended(
                     (name, s, q), lambda: f(s, q), pres[q][s], pres[q + m - n][s], what))
                for p in range(min(n, m) + 1)
            ]

        def b(n):
            what = f"b_{n} of {label}"
            parts = diagonal("alg_b", n, n - 1, what)
            for p in range(1, n + 1):
                q = n - p

                def twist(s, s2, x, q=q):
                    return descended(("twist", s, s2, x, q), lambda: ops.alg_twist(x, q),
                                     pres[q][s], pres[q][s2], what)

                moves = ops.moves("bbar", p, q)
                _check_closed(ops, moves, places[n][p], places[n - 1][p - 1], sigma[p + 1],
                              twist, what, p, q)
                parts.append((sources[n][p], moves, places[n - 1][p - 1], twist))
            return ops._group_blocks(dims[n - 1], dims[n], parts)

        def B(n):
            what = f"B_{n} of {label}"
            return ops._group_blocks(dims[n + 1], dims[n], diagonal("alg_B", n, n + 1, what))

        self.mixed = MixedComplex(
            dims, [None] + [b(n) for n in range(1, k + 1)], [B(n) for n in range(k)] + [None],
            stalks, label,
        )


def _check_closed(ops, moves, sources, targets, sigma, block, what, p, q):
    """Check that the moves of bbar on block (p, q) from each degenerate
    tuple (sources[t] None) onto the non-degenerate ones cancel: formally,
    the (target, twist) pairs of either sign matching, and otherwise as the
    sum of the element blocks they place on each target, which must vanish.
    Raises WellDefinednessError naming the first source and target tuple
    where they do not."""
    for t, at in enumerate(sources):
        if at is not None:
            continue
        plus, minus = [], []
        for c, hs, xs in moves:
            h = hs[t]
            if targets[h] is not None:
                (plus if c > 0 else minus).append((h, xs if xs.__class__ is int else xs[t]))
        if sorted(plus) == sorted(minus):
            continue
        s = sigma[t]
        for h in sorted({h for h, _ in plus + minus}):
            s2 = targets[h][1]
            terms = [(c, m, QMatrix.identity(m.cols))
                     for c, pairs in ((1, plus), (-1, minus)) for hh, x in pairs if hh == h
                     for m in [block(s, s2, x)]]
            if first_nonzero_column(terms) is not None:
                raise WellDefinednessError(
                    f"{what} does not keep the degenerate group tuples closed",
                    location=f"(p,q)=({p},{q}), group tuple {_names(ops, t, p, q)} "
                             f"onto {_names(ops, h, p - 1, q)}",
                )


def _names(ops, t, p, q):
    """The names of the group tuple of index t of block (p, q)."""
    return ",".join(map(ops.group.name, ops.basis(p, q).decode_group(t)))


def proposition_bicomplex(algebra, group, max_degree):
    """Homology of the quotient bicomplex of the crossed-product theory."""
    return PropositionComplex(GJOperators(algebra, group), max_degree).mixed.total_homology()


def group_action_operator(group, h, twist):
    """Action of h on k[G] (x) (algebra slots): C_h (x) twist, where C_h is
    conjugation by h on the group slot and twist the matrix of h on every
    algebra slot."""
    conj = [{group.conjugate(h, g0): 1} for g0 in range(group.order)]
    return kron(QMatrix.from_integers(group.order, conj), twist)


class CoinvariantComplex:
    """(k[G] (x) A (x) Abar^n) / G with the conjugation-diagonal action.

    The orbit relations absorb (1 - T): the T-twist on the stalk of g is
    the action of g itself.  They are taken over a generating set of G.  b
    and B are the stalkwise operators twisted by the inverse of the stalk
    element.
    """

    def __init__(self, ops, max_degree):
        self.ops = ops
        group = ops.group
        gens = generators(group, range(group.order))

        def relations(n):
            basis = ops.basis(0, n)
            acts = [group_action_operator(group, h, ops.alg_twist(h, n)) for h in gens]
            return coinvariant_relations(basis.size, acts)

        self.mixed = quotient_mixed_complex(
            max_degree + 1, relations, lambda n: ops.b(0, n), lambda n: ops.B(0, n),
            "coinvariant bicomplex",
        )


def coinvariant_bicomplex(algebra, group, max_degree):
    """Homology of the coinvariant bicomplex (the model of HC(A x| G)
    that the stalk decomposition acts on; |G| invertible)."""
    return CoinvariantComplex(GJOperators(algebra, group), max_degree).mixed.total_homology()


# ---------------------------------------------------------------------
# conjugacy stalks and the comparison map
# ---------------------------------------------------------------------

def stalk_complex(ops, rep, centralizer, max_degree):
    """The mixed complex (A (x) Abar^n) / G^g of one conjugacy-class
    representative g = rep through degree max_degree + 1.

    The centralizer acts diagonally, its relations taken over a generating
    set; the operators are the g^{-1}-twisted b and B of ops, descended.
    The quotient absorbs (1 - T_{g^{-1}}) because g centralizes itself.
    """
    sigma = ops.group.inverse[rep]
    gens = generators(ops.group, list(centralizer))

    def relations(n):
        # a trivial centralizer has no generators, so the size is the basis's
        size = ops.basis(0, n).asize
        return coinvariant_relations(size, [ops.alg_twist(h, n) for h in gens])

    return quotient_mixed_complex(
        max_degree + 1, relations, lambda n: ops.alg_b(sigma, n),
        lambda n: ops.alg_B(sigma, n), f"stalk over class of element {rep}",
    )


class ConjugacyDecomposition:
    """The stalks, one ``MixedComplex`` per conjugacy class, built from the
    centralizer quotients and not from the coinvariant blocks, plus the
    chain-level splitting of the coinvariant complex.

    The splitting sends the class of (h | m) to u_h(m) in the stalk of the
    class representative, where u_h conjugates h to the representative; it
    is checked to be a degreewise isomorphism and a chain map, which is
    the computational content of the orbit-module induction step.
    """

    def __init__(self, coinv):
        self.coinv = coinv
        group = coinv.ops.group
        self.conj = conjugacy_data(group)
        self.stalks = [
            stalk_complex(coinv.ops, rep, cent, coinv.mixed.top - 1)
            for rep, cent in zip(self.conj.representatives, self.conj.centralizers)
        ]
        # u_h: first group element conjugating h to its class representative
        reps = [self.conj.representatives[self.conj.class_of[h]] for h in range(group.order)]
        self.conjugator = [
            next(u for u in range(group.order) if group.conjugate(u, h) == reps[h])
            for h in range(group.order)
        ]
        self.split = self._build_splitting()
        self._verify_chain_iso()

    def _build_splitting(self):
        """Per degree: coinvariant quotient -> direct sum of stalk quotients."""
        ops = self.coinv.ops
        order = ops.group.order
        split = []
        for n in range(self.coinv.mixed.top + 1):
            stalks = [st.presentations[n] for st in self.stalks]
            # stalk h goes to the stalk of its class through u_h
            ambient = block_matrix(
                {(self.conj.class_of[h], h): ops.alg_twist(self.conjugator[h], n)
                 for h in range(order)},
                [pres.ambient_dim for pres in stalks],
                [ops.basis(0, n).asize] * order,
            )
            split.append(
                descend_map(
                    ambient, self.coinv.mixed.presentations[n], direct_sum(stalks),
                    what=f"class splitting at degree {n}",
                )
            )
        return split

    def _verify_chain_iso(self):
        k = self.coinv.mixed.top
        for n in range(k + 1):
            v = self.split[n]
            if v.rows != v.cols or rank(v) != v.rows:
                raise ComplexError(
                    "class splitting is not an isomorphism", location=f"degree {n}"
                )
        # chain map into the direct sum of the stalks, whose b and B are blockwise
        stalk_sum = SimpleNamespace(
            b=[None] + [block_diag([m.b[n] for m in self.stalks]) for n in range(1, k + 1)],
            B=[block_diag([m.B[n] for m in self.stalks]) for n in range(k)],
        )
        check_mixed_map(self.split, self.coinv.mixed, stalk_sum, "class splitting")


def conjugacy_decomposition(algebra, group, max_degree):
    return ConjugacyDecomposition(CoinvariantComplex(GJOperators(algebra, group), max_degree))


def theorem_map_f(hk, deco, g):
    """The comparison map from the g-twisted theory hk into the
    crossed-product theory (the coinvariant model of the decomposition
    deco), as one dict of rank certificates per degree.

    Chain level: m -> class of (g^{-1} | m).  Composed with the class
    splitting, a checked chain isomorphism, it must land in the stalk of
    the class of g^{-1} (an entry outside raises ChainMapError naming the
    degree); the certificates say from that composite alone whether the
    map is injective and onto that summand of the decomposition.
    Raises ValueError unless hk is the g-twisted complex at deco's degree.
    """
    coinv = deco.coinv
    group = coinv.ops.group
    k = coinv.mixed.top
    if hk.mixed.top != k or hk.ops.g != group.action[g]:
        raise ValueError(
            f"theorem map needs the twisted complex of element {g} at degree {k - 1}"
        )
    ginv = group.inverse[g]
    cls = deco.conj.class_of[ginv]

    # ambient embedding m -> (g^{-1} | m), descended through both quotients
    f_mixed = []
    for n in range(k + 1):
        basis = coinv.ops.basis(0, n)
        amb = QMatrix.identity(basis.asize).shift_rows(ginv * basis.asize, basis.size)
        f_mixed.append(descend_map(
            amb, hk.mixed.presentations[n], coinv.mixed.presentations[n],
            what=f"theorem map at degree {n}",
        ))
    check_mixed_map(f_mixed, hk.mixed, coinv.mixed, "theorem map")

    # composite into the distinguished stalk summand, assembled at the
    # mixed level where the stalk block is contiguous
    srcH = hk.mixed.total_homology()
    stalkH = deco.stalks[cls].total_homology()
    comp_mixed = []
    for n in range(k + 1):
        whole = deco.split[n] @ f_mixed[n]
        pick_off = sum(st.dims[n] for st in deco.stalks[:cls])
        comp = whole.shift_rows(-pick_off, deco.stalks[cls].dims[n])
        if comp.nnz() != whole.nnz():
            raise ChainMapError(f"theorem map leaves the stalk of {group.name(ginv)} at degree {n}")
        comp_mixed.append(comp)
    induced = induced_on_homology(total_map(comp_mixed), srcH, stalkH)

    degrees = []
    for n in range(k):
        rk = rank(induced[n])
        degrees.append(
            {
                "degree": n,
                "dim_source": srcH.dims[n],
                "dim_target": coinv.mixed.total_homology().dims[n],
                "dim_stalk": stalkH.dims[n],
                "rank": rk,
                "injective": rk == srcH.dims[n],
                "onto_summand": rk == stalkH.dims[n],
            }
        )
    return degrees


# ---------------------------------------------------------------------
# the group-indexed Connes complex
# ---------------------------------------------------------------------

def lambda_cyclic_operator(algebra, group, n):
    """Signed cyclic rotation t on k[G] (x) A^{(n+1)} (full slots):

    t(g | a_0, ..., a_n) = (-1)^n (g | g^{-1}(a_n), a_0, ..., a_{n-1}),
    block diagonal over g in ``twisted.cyclic_operator`` of g^{-1}, the
    twist of the stalk's b.  Its (n+1)-st power is the diagonal
    g^{-1}-twist; the sign makes b descend to the (1 - t)-quotient.
    """
    return block_diag([
        cyclic_operator(algebra, group.action[group.inverse[g]], n) for g in range(group.order)
    ])


class LambdaComplex:
    """(k[G] (x) A^{(n+1)}) / (1 - t) [optionally / G], with the stalkwise
    twisted boundary, on the full-slot blocks of ops.  Computes the
    crossed-product cyclic homology when the rationals are in the ground
    ring and coinvariants are enabled.  The group relations are taken over
    a generating set of G, next to those of t, in relations(n).
    """

    def __init__(self, ops, max_degree, g_coinvariants=True):
        self.ops = ops
        self.g_coinvariants = g_coinvariants
        group = ops.group
        gens = generators(group, range(group.order)) if g_coinvariants else []

        def relations(n):
            basis = ops.basis(0, n, reduced=False)
            acts = [lambda_cyclic_operator(ops.algebra, group, n)]
            acts.extend(
                group_action_operator(group, h, ops.alg_twist(h, n, reduced=False))
                for h in gens
            )
            return coinvariant_relations(basis.size, acts)

        self.relations = relations
        self.mixed = quotient_mixed_complex(
            max_degree + 1, relations, lambda n: ops.b(0, n, reduced=False),
            None, "group-indexed Connes complex",
        )


def connes_lambda_complex(algebra, group, max_degree, g_coinvariants=True):
    lam = LambdaComplex(GJOperators(algebra, group), max_degree, g_coinvariants)
    return lam.mixed.column_homology()
