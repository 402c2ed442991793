"""Twisted tensor-module operators and the twisted cyclic bicomplex for a
single algebra automorphism.

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

The last formula is the s.N normalization of the twisted cyclic operator;
it agrees with the variant that twists the leading block once the modules
are divided by (1 - T), but unlike that variant it satisfies the Connes
identity bB + Bb = 1 - T on the nose, which is what the quotient
bicomplex construction checks against.
"""

from .algebra import algebra_tensor_basis
from .complexes import quotient_mixed_complex
from .quotient import coinvariant_relations
from .rational import QONE
from .sparse import QMatrix


def _expand_into(col, slots_vecs, sign, basis):
    """Accumulate the tensor product of per-slot vectors into a column."""
    partial = [((), QONE)]
    for vec in slots_vecs:
        if not vec:
            return
        nxt = []
        for tup, c in partial:
            for k, v in vec.items():
                nxt.append((tup + (k,), c * v))
        partial = nxt
    for tup, c in partial:
        idx = basis.encode_algebra(tup)
        nv = col.get(idx)
        nv = sign * c if nv is None else nv + sign * c
        if nv:
            col[idx] = nv
        elif idx in col:
            del col[idx]


def _slot_image(vec, reduced):
    if reduced:
        return {k: v for k, v in vec.items() if k != 0}
    return vec


def twist_matrix(algebra, g, n, reduced=False):
    """Matrix of g applied to every slot of A^{(n+1)} (reduced: A (x) Abar^n)."""
    basis = algebra_tensor_basis(
        algebra, n + 1, None if reduced else (False,) * (n + 1)
    )
    cols = []
    images = [g.image_of_basis(i) for i in range(algebra.dim)]
    for aidx in range(basis.asize):
        atuple = basis.decode_algebra(aidx)
        col = {}
        slots = [
            _slot_image(images[a], basis.reduced[s]) for s, a in enumerate(atuple)
        ]
        _expand_into(col, slots, QONE, basis)
        cols.append(col)
    return QMatrix(basis.asize, basis.asize, cols, _adopt=True)


def twisted_b(algebra, g, n, reduced=False):
    """Twisted Hochschild boundary A^{(n+1)} -> A^{(n)} (n >= 1)."""
    if n < 1:
        raise ValueError("twisted_b needs n >= 1")
    src = algebra_tensor_basis(algebra, n + 1, None if reduced else (False,) * (n + 1))
    dst = algebra_tensor_basis(algebra, n, None if reduced else (False,) * n)
    images = [g.image_of_basis(i) for i in range(algebra.dim)]
    cols = []
    for aidx in range(src.asize):
        a = src.decode_algebra(aidx)
        col = {}
        # inner faces: multiply adjacent slots
        for i in range(n):
            prod = algebra.basis_product(a[i], a[i + 1])
            prod = _slot_image(prod, dst.reduced[i])
            rest = a[:i] + a[i + 2 :]
            sign = QONE if i % 2 == 0 else -QONE
            for k, v in prod.items():
                tup = rest[:i] + (k,) + rest[i:]
                idx = dst.encode_algebra(tup)
                nv = col.get(idx)
                nv = sign * v if nv is None else nv + sign * v
                if nv:
                    col[idx] = nv
                elif idx in col:
                    del col[idx]
        # last face wraps through the twist: g(a_n) a_0 into slot 0
        gan = images[a[n]]
        sign = QONE if n % 2 == 0 else -QONE
        for m, w in gan.items():
            prod = algebra.basis_product(m, a[0])
            for k, v in prod.items():
                tup = (k,) + a[1:n]
                idx = dst.encode_algebra(tup)
                nv = col.get(idx)
                nv = sign * w * v if nv is None else nv + sign * w * v
                if nv:
                    col[idx] = nv
                elif idx in col:
                    del col[idx]
        cols.append(col)
    return QMatrix(dst.asize, src.asize, cols, _adopt=True)


def twisted_B(algebra, g, n):
    """Normalized degree-raising operator A (x) Abar^n -> A (x) Abar^{n+1}."""
    src = algebra_tensor_basis(algebra, n + 1)
    dst = algebra_tensor_basis(algebra, n + 2)
    images = [g.image_of_basis(i) for i in range(algebra.dim)]
    unit_slot = {0: QONE}
    cols = []
    for aidx in range(src.asize):
        a = src.decode_algebra(aidx)
        col = {}
        for j in range(1, n + 2):
            sign = QONE if (n * j) % 2 == 0 else -QONE
            slots = [unit_slot]
            ok = True
            for s in range(j, n + 1):
                img = _slot_image(images[a[s]], True)
                if not img:
                    ok = False
                    break
                slots.append(img)
            if not ok:
                continue
            # wrapped block: a_0 enters a reduced slot, a_1..a_{j-1} stay put
            if a[0] == 0:
                continue
            slots.append({a[0]: QONE})
            for s in range(1, j):
                slots.append({a[s]: QONE})
            _expand_into(col, slots, sign, dst)
        cols.append(col)
    return QMatrix(dst.asize, src.asize, cols, _adopt=True)


class HKBicomplex:
    """Quotient bicomplex of the twisted theory through internal degree N+1.

    modules: (A (x) Abar^n) / (1 - T), with b and B descended; the descent
    is checked exactly, so construction fails loudly if an operator and the
    quotient are incompatible.
    """

    def __init__(self, algebra, g, max_degree):
        self.algebra = algebra
        self.g = g
        self.max_degree = max_degree
        self.n_internal = max_degree + 1

        def relations(n):
            t = twist_matrix(algebra, g, n, reduced=True)
            return coinvariant_relations(t.rows, [t])

        self.mixed = quotient_mixed_complex(
            self.n_internal,
            relations,
            lambda n: twisted_b(algebra, g, n, reduced=True),
            lambda n: twisted_B(algebra, g, n),
            f"twisted bicomplex (N={max_degree})",
        )
        self.presentations = self.mixed.presentations

    def total(self):
        return self.mixed.total(self.n_internal)


def twisted_hochschild(algebra, g, max_degree):
    """Homology of the first column ((A (x) Abar^n)/(1-T), b) through max_degree."""
    return HKBicomplex(algebra, g, max_degree).mixed.column_homology()


def twisted_cyclic(algebra, g, max_degree):
    """Twisted cyclic homology dims through max_degree (total complex route)."""
    return HKBicomplex(algebra, g, max_degree).mixed.total_homology()
