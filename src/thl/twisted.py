"""Twisted tensor-module operators, the twisted cyclic bicomplex and the
twisted Connes complex for a single algebra automorphism.

Operator conventions, fixed once and validated by the operator-identity
suite (b.b = 0, B.B = 0, bB + Bb = 1 - T, and T commuting with both):

* T twists every slot:  T(a_0, ..., a_n) = (g(a_0), ..., g(a_n)).
* b is the face sum with the last face wrapping through the twist:
  d_n(a_0, ..., a_n) = (g(a_n) a_0, a_1, ..., a_{n-1}).
* the normalized B inserts the unit and cyclically rotates, twisting the
  entries that wrap past the end:
  B(a_0, ..., a_n) = sum_{j=1}^{n+1} (-1)^{nj}
      (1, g(a_j), ..., g(a_n), a_0, ..., a_{j-1}),
  the j = n+1 term being the untwisted (1, a_0, ..., a_n).

* the signed cyclic rotation t wraps the last slot through the twist:
  t(a_0, ..., a_n) = (-1)^n (g(a_n), a_0, ..., a_{n-1}), so d_n = d_0 t
  and t^{n+1} = T on full slots.

The B formula is the s.N normalization of the twisted cyclic operator;
it agrees with the variant that twists the leading block once the modules
are divided by (1 - T), but unlike that variant it satisfies the Connes
identity bB + Bb = 1 - T on the nose, which is what the quotient
bicomplex construction checks against.

T moves every slot and copies none, so it is the Kronecker power of its
slot maps, built with ``sparse.kron``.  Each other builder below states
its formula as terms of ``algebra.tensor_operator``: a sign and a map of
the slots a term moves, with the leading slots and the run of slots it
copies unchanged (face i of b copies slots 0, ..., i - 1 and i + 2, ...,
n; the wrap face slots 1, ..., n - 1; term j of B slots 1, ..., j - 1; t
slots 0, ..., n - 1).  The kernel expands each term once per assignment
of the other slots, over Python integers.
``TwistedOperators`` gives them, and keeps the (1 - T) presentations, per
automorphism.  It hands each twist power to the next degree, T_q =
kron(T_{q-1}, slot map), and holds one power at a time: a bicomplex's
relations hold none once its top's are built.
"""

from .algebra import (
    AlgebraMap,
    algebra_tensor_basis,
    integer_images,
    matrix_slots,
    tensor_operator,
)
from .complexes import quotient_mixed_complex
from .quotient import coinvariant_relations, quotient_by
from .sparse import QMatrix, kron


def twist_matrix(algebra, g, n, reduced=False):
    """Matrix of g applied to every slot of A^{(n+1)} (reduced: A (x) Abar^n):
    the Kronecker power of the slot maps, g on slot 0 and on a full slot,
    and on a reduced slot gbar, g on Abar = A/Q.1, its unit row and column
    dropped."""
    # a reduced slot needs the unit at e_0, as the basis does
    algebra_tensor_basis(algebra, n + 1, reduced)
    out, slot = g.matrix, _slot_map(algebra, g, reduced)
    for _ in range(n):
        out = kron(out, slot)
    return out


def _slot_map(algebra, g, reduced):
    """g on a full slot, gbar on a reduced one."""
    if not reduced:
        return g.matrix
    return g.matrix.select_columns(range(1, algebra.dim)).shift_rows(-1, algebra.dim - 1)


def cyclic_operator(algebra, g, n):
    """Signed twisted cyclic rotation t on A^{(n+1)} (full slots):
    t(a_0, ..., a_n) = (-1)^n (g(a_n), a_0, ..., a_{n-1})."""
    basis = algebra_tensor_basis(algebra, n + 1, reduced=False)
    den, (img,) = integer_images([g])
    sign = -1 if n % 2 else 1
    return tensor_operator(basis, basis, [(0, range(n), lambda _, a: [(sign, (), (img[a[0]],))])], den)


def twisted_b(algebra, g, n, reduced=False):
    """Twisted Hochschild boundary A^{(n+1)} -> A^{(n)} (n >= 1)."""
    if n < 1:
        raise ValueError("twisted_b needs n >= 1")
    d, mu = algebra.dim, algebra.mu
    # e_x e_y for the inner faces, g(e_x) e_y for the last one: column
    # x * d + y of mu and of mu (g (x) 1), over one denominator
    den, slots = matrix_slots(mu.hstack(mu @ kron(g.matrix, QMatrix.identity(d))))
    prod, wrap = slots[: d * d], slots[d * d :]

    def face(i):
        # face i multiplies slots i, i + 1 and copies slots 0, ..., i - 1
        # and i + 2, ..., n
        sign = -1 if i % 2 else 1
        return i, range(i + 2, n + 1), lambda _, a: [(sign, (), (prod[a[0] * d + a[1]],))]

    # the last face wraps g(a_n) a_0 into slot 0 and copies slots 1, ..., n - 1
    last = (0, range(1, n), lambda _, a: [(-1 if n % 2 else 1, (), (wrap[a[1] * d + a[0]],))])
    return tensor_operator(
        algebra_tensor_basis(algebra, n + 1, reduced), algebra_tensor_basis(algebra, n, reduced),
        [face(i) for i in range(n)] + [last], den,
    )


def twisted_B(algebra, g, n):
    """Normalized degree-raising operator A (x) Abar^n -> A (x) Abar^{n+1}."""
    den, (img,) = integer_images([g])

    def term(j):
        # term j copies slots 1, ..., j - 1 and twists its n + 1 - j moved
        # slots, so it is scaled by den^(j-1); a holds a_0, a_j, ..., a_n
        c = (-1 if n * j % 2 else 1) * den ** (j - 1)
        return 0, range(1, j), lambda _, a: [(c, (), (0,) + tuple(img[x] for x in a[1:]) + a[:1])]

    return tensor_operator(
        algebra_tensor_basis(algebra, n + 1), algebra_tensor_basis(algebra, n + 2),
        [term(j) for j in range(1, n + 2)], den ** n,
    )


class TwistedOperators:
    """The g-twisted theory on A (x) Abar^q: the twist T_g, b and B and the
    generators of the relations of (A (x) Abar^q)/(1 - T_g), built on each
    call, and its presentation, built on first use and kept for the life of
    the instance.

    One instance serves every reader of g: its twisted bicomplex and,
    through ``crossed.GJOperators.element``, every block of the
    crossed-product theory that twists by g.  The raw operators are not
    kept here: a twisted bicomplex drops each one once it has descended
    it, and ``GJOperators`` keeps those it reads again.  A bicomplex through
    K presents degree K only when its top is read (``complexes``).

    Twist powers are handed along: the instance holds at most one, the last
    it built, and builds T_q as kron(T_{q-1}, slot map) when it holds
    T_{q-1} over the same slots, from scratch otherwise (readers such as
    ``GJOperators.alg_twist`` ask for degrees in any order).  Relations
    asked for as the last degree, as a bicomplex asks for its top's, hold
    none, so no power outlives the bicomplex's construction.
    """

    def __init__(self, algebra, g):
        self.algebra = algebra
        self.g = g
        self._presentations = {}
        self._power = None      # (q, reduced, T_q), handed to degree q + 1

    def twist(self, q, reduced=True):
        """T_g on degree q, held in place of the power held before."""
        held = self._power
        if held is not None and held[:2] == (q - 1, reduced):
            out = kron(held[2], _slot_map(self.algebra, self.g, reduced))
        else:
            out = twist_matrix(self.algebra, self.g, q, reduced=reduced)
        self._power = (q, reduced, out)
        return out

    def b(self, q, reduced=True):
        return twisted_b(self.algebra, self.g, q, reduced=reduced)

    def B(self, q):
        return twisted_B(self.algebra, self.g, q)

    def relations(self, q, last=False):
        """The columns m - T_g(m) spanning the relations of degree q: none
        for the identity, for which no twist matrix is built.  T_g is held
        for degree q + 1 unless q is the last degree asked for."""
        twist = [] if self.g == AlgebraMap.identity(self.algebra.dim) else [self.twist(q)]
        if last:
            self._power = None
        return coinvariant_relations(algebra_tensor_basis(self.algebra, q + 1).asize, twist)

    def presentation(self, q, last=False):
        """(A (x) Abar^q)/(1 - T_g); last as for ``relations``."""
        pres = self._presentations.get(q)
        if pres is None:
            # only a held twist power outlives the relation columns
            rels = self.relations(q, last)
            pres = self._presentations[q] = quotient_by(rels.rows, rels)
        return pres


class HKBicomplex:
    """Quotient bicomplex of the twisted theory through internal degree N+1.

    modules: (A (x) Abar^n) / (1 - T), the presentations of the
    TwistedOperators ops, with b and B descended; the descent is checked
    exactly, so construction fails loudly if an operator and the quotient
    are incompatible.
    """

    def __init__(self, ops, max_degree):
        self.ops = ops
        top = max_degree + 1
        self.mixed = quotient_mixed_complex(
            top, lambda n: ops.relations(n, n == top), ops.b, ops.B,
            f"twisted bicomplex (N={max_degree})", lambda n: ops.presentation(n, n == top),
        )


def connes_complex(ops, max_degree):
    """The twisted Connes complex (A^{(n+1)} / (1 - t), b) of the
    TwistedOperators ops through degree max_degree + 1: t and b on full
    slots, both twisted by ops.g (a rotation twisted otherwise fails the
    exact descent of b).  Valid for a twist of finite order over Q, as every
    group element's is: its ``column_homology()`` is then HC^g(A) through
    max_degree (Connes' theorem, Loday, *Cyclic Homology*, Thm 2.1.5;
    twisted: Kustermans, Murphy and Tuset, 2003), a route that shares no
    quotient with the (b, B) total complex of ``HKBicomplex``.
    """
    def relations(n):
        size = algebra_tensor_basis(ops.algebra, n + 1, reduced=False).size
        return coinvariant_relations(size, [cyclic_operator(ops.algebra, ops.g, n)])

    return quotient_mixed_complex(
        max_degree + 1, relations, lambda n: ops.b(n, reduced=False), None,
        f"twisted Connes complex (N={max_degree})",
    )


def twisted_hochschild(algebra, g, max_degree):
    """Homology of the first column ((A (x) Abar^n)/(1-T), b) through max_degree."""
    return HKBicomplex(TwistedOperators(algebra, g), max_degree).mixed.column_homology()


def twisted_cyclic(algebra, g, max_degree):
    """Twisted cyclic homology dims through max_degree (total complex route)."""
    return HKBicomplex(TwistedOperators(algebra, g), max_degree).mixed.total_homology()
