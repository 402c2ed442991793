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

Each builder below states these formulas as terms of
``algebra.tensor_operator``: a sign and a map of the slots a term moves,
with the leading slots and the run of slots it copies unchanged (face i
of b copies slots 0, ..., i - 1 and i + 2, ..., n; the wrap face slots
1, ..., n - 1; term j of B slots 1, ..., j - 1; t slots 0, ..., n - 1;
T copies none).  The kernel expands each term once per assignment of
the other slots, over Python integers.
``TwistedOperators`` gives them, and keeps the (1 - T) presentations, per
automorphism.
"""

from .algebra import (
    AlgebraMap,
    algebra_tensor_basis,
    integer_images,
    integer_slots,
    tensor_operator,
)
from .complexes import quotient_mixed_complex
from .quotient import coinvariant_relations, quotient_by, trivial_quotient
from .rational import QONE


def twist_matrix(algebra, g, n, reduced=False):
    """Matrix of g applied to every slot of A^{(n+1)} (reduced: A (x) Abar^n)."""
    basis = algebra_tensor_basis(algebra, n + 1, reduced)
    den, (img,) = integer_images([g])
    return tensor_operator(
        basis, basis, [(0, range(0), lambda _, a: [(1, (), [img[x] for x in a])])], den ** (n + 1)
    )


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
    d = algebra.dim
    # e_x e_y for the inner faces, g(e_x) e_y for the last one, one denominator
    den, slots = integer_slots(
        [algebra.basis_product(x, y) for x in range(d) for y in range(d)]
        + [algebra.multiply(g.image_of_basis(x), {y: QONE}) for x in range(d) for y in range(d)]
    )
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
    """The g-twisted theory on A (x) Abar^q: the twist T_g, b and B, built
    on each call, and the presentation of (A (x) Abar^q)/(1 - T_g), built
    on first use and kept for the life of the instance.

    One instance serves every reader of g: its twisted bicomplex and,
    through ``crossed.GJOperators.element``, every block of the
    crossed-product theory that twists by g.  The raw operators are not
    kept here: a twisted bicomplex drops each one once it has descended
    it, and ``GJOperators`` keeps those it reads again.
    """

    def __init__(self, algebra, g):
        self.algebra = algebra
        self.g = g
        self._presentations = {}

    def twist(self, q, reduced=True):
        return twist_matrix(self.algebra, self.g, q, reduced=reduced)

    def b(self, q, reduced=True):
        return twisted_b(self.algebra, self.g, q, reduced=reduced)

    def B(self, q):
        return twisted_B(self.algebra, self.g, q)

    def presentation(self, q):
        """(A (x) Abar^q)/(1 - T_g); the identity has no relations, and
        no twist matrix is built for it."""
        pres = self._presentations.get(q)
        if pres is None:
            size = algebra_tensor_basis(self.algebra, q + 1).asize
            if self.g == AlgebraMap.identity(self.algebra.dim):
                pres = trivial_quotient(size)
            else:
                # the twist is dropped before the relations are reduced
                pres = quotient_by(size, coinvariant_relations(size, [self.twist(q)]))
            self._presentations[q] = pres
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
        self.mixed = quotient_mixed_complex(
            max_degree + 1, ops.presentation, ops.b, ops.B, f"twisted bicomplex (N={max_degree})"
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
    def presentation(n):
        size = algebra_tensor_basis(ops.algebra, n + 1, reduced=False).size
        t = cyclic_operator(ops.algebra, ops.g, n)
        return quotient_by(size, coinvariant_relations(size, [t]))

    return quotient_mixed_complex(
        max_degree + 1, presentation, lambda n: ops.b(n, reduced=False), None,
        f"twisted Connes complex (N={max_degree})",
    )


def twisted_hochschild(algebra, g, max_degree):
    """Homology of the first column ((A (x) Abar^n)/(1-T), b) through max_degree."""
    return HKBicomplex(TwistedOperators(algebra, g), max_degree).mixed.column_homology()


def twisted_cyclic(algebra, g, max_degree):
    """Twisted cyclic homology dims through max_degree (total complex route)."""
    return HKBicomplex(TwistedOperators(algebra, g), max_degree).mixed.total_homology()
