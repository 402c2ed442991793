"""Finite-dimensional Q-algebras, automorphism groups, crossed products,
and enumeration of the tensor-module bases everything else is built on.
"""

from itertools import product
from math import lcm, prod

from .errors import ActionError, AlgebraError, ReducedBasisError
from .rational import Q, QONE
from .sparse import QMatrix, integer_columns, rank


class Algebra:
    """Unital associative algebra given by structure constants.

    mult[i][j] is the sparse coordinate vector {k: c} of e_i * e_j.
    The unit is a coordinate vector; normalized (reduced) tensor modules
    additionally require it to be the basis vector e_0.
    """

    def __init__(self, dim, basis_names, unit, mult):
        self.dim = dim
        self.basis_names = list(basis_names)
        self.unit = {k: Q(v) for k, v in unit.items() if v}
        self.mult = [
            [{k: Q(v) for k, v in cell.items() if v} for cell in row] for row in mult
        ]

    @property
    def unit_is_basis0(self):
        return self.unit == {0: QONE}

    def multiply(self, a, b):
        """Product of two sparse coordinate vectors."""
        out = {}
        for i, va in a.items():
            row = self.mult[i]
            for j, vb in b.items():
                c = va * vb
                for k, w in row[j].items():
                    nv = out.get(k)
                    nv = c * w if nv is None else nv + c * w
                    if nv:
                        out[k] = nv
                    elif k in out:
                        del out[k]
        return out

    def basis_product(self, i, j):
        return self.mult[i][j]

    def label(self, i):
        return self.basis_names[i]

    def __repr__(self):
        return f"Algebra(dim={self.dim}, basis={self.basis_names})"


def validate_algebra(algebra):
    """Associativity and unit laws, checked exactly over every basis triple,
    on the structure constants over one denominator."""
    d = algebra.dim
    den, prod = _structure_constants(algebra)
    uden, (unit,) = integer_columns([algebra.unit])
    for i in range(d):
        # u e_i and e_i u, over uden * den, must both be e_i
        e_i = {i: uden * den}
        if _int_product(prod, d, unit, {i: 1}) != e_i or _int_product(prod, d, {i: 1}, unit) != e_i:
            raise AlgebraError(
                f"unit law fails on basis vector {algebra.label(i)}"
            )
    for i in range(d):
        for j in range(d):
            ij = prod[i * d + j]
            for k in range(d):
                # both sides over den^2
                left = _int_product(prod, d, ij, {k: 1})
                right = _int_product(prod, d, {i: 1}, prod[j * d + k])
                if left != right:
                    raise AlgebraError(
                        "associativity fails on triple "
                        f"({algebra.label(i)}, {algebra.label(j)}, {algebra.label(k)})"
                    )


def _structure_constants(algebra):
    """(den, prod): prod[i * dim + j] is den * (e_i e_j) as an integer vector."""
    d = algebra.dim
    return integer_columns([algebra.mult[i][j] for i in range(d) for j in range(d)])


def _int_product(prod, d, x, y):
    """The integer vector sum x_a y_b prod[a * d + b] of integer vectors x, y."""
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            c = u * v
            for k, w in prod[a * d + b].items():
                out[k] = out.get(k, 0) + c * w
    return {k: v for k, v in out.items() if v}


class AlgebraMap:
    """Algebra automorphism as a dim x dim matrix (columns = images)."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.dim = matrix.rows

    def image_of_basis(self, i):
        return self.matrix.column(i)

    def apply(self, vec):
        return self.matrix.apply(vec)

    @staticmethod
    def identity(dim):
        return AlgebraMap(QMatrix.identity(dim))

    def __eq__(self, other):
        return isinstance(other, AlgebraMap) and self.matrix == other.matrix


def validate_automorphism(algebra, amap, name="g"):
    """Unit preservation, multiplicativity, invertibility."""
    if amap.matrix.rows != algebra.dim or amap.matrix.cols != algebra.dim:
        raise ActionError(f"{name}: matrix has wrong shape")
    if amap.apply(algebra.unit) != algebra.unit:
        raise ActionError(f"{name}: does not fix the unit")
    d = algebra.dim
    den, prod = _structure_constants(algebra)
    gden, images = amap.matrix.den, amap.matrix._cols
    for i, gi in enumerate(images):
        for j, gj in enumerate(images):
            # g(e_i e_j) and g(e_i) g(e_j), both over den * gden^2
            lhs = {}
            for m, c in prod[i * d + j].items():
                for r, w in images[m].items():
                    lhs[r] = lhs.get(r, 0) + gden * c * w
            if {r: v for r, v in lhs.items() if v} != _int_product(prod, d, gi, gj):
                raise ActionError(
                    f"{name}: not multiplicative on "
                    f"({algebra.label(i)}, {algebra.label(j)})"
                )
    if rank(amap.matrix) != algebra.dim:
        raise ActionError(f"{name}: matrix is singular")


class FiniteGroupAction:
    """Finite group (multiplication table) acting on an algebra.

    mult_table[i][j] is the index of g_i g_j.  action[i] is the
    automorphism attached to g_i.
    """

    def __init__(self, element_names, mult_table, action):
        self.order = len(element_names)
        self.element_names = list(element_names)
        self.mult_table = [list(row) for row in mult_table]
        self.action = list(action)
        self.identity_index = self._find_identity()
        self.inverse = self._find_inverses()

    def _find_identity(self):
        for e in range(self.order):
            if all(
                self.mult_table[e][x] == x and self.mult_table[x][e] == x
                for x in range(self.order)
            ):
                return e
        raise ActionError("multiplication table has no identity element")

    def _find_inverses(self):
        inv = [None] * self.order
        e = self.identity_index
        for x in range(self.order):
            for y in range(self.order):
                if self.mult_table[x][y] == e and self.mult_table[y][x] == e:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ActionError(f"element {self.element_names[x]} has no inverse")
        return inv

    def mul(self, x, y):
        return self.mult_table[x][y]

    def product(self, indices):
        acc = self.identity_index
        for x in indices:
            acc = self.mult_table[acc][x]
        return acc

    def conjugate(self, h, x):
        """h x h^-1."""
        return self.mul(self.mul(h, x), self.inverse[h])

    def name(self, x):
        return self.element_names[x]

    def index_of(self, name):
        return self.element_names.index(name)


def validate_action(algebra, group):
    """Group laws, per-element automorphisms, and the homomorphism property."""
    r = group.order
    for x in range(r):
        for y in range(r):
            for z in range(r):
                if group.mul(group.mul(x, y), z) != group.mul(x, group.mul(y, z)):
                    raise ActionError(
                        "group table is not associative on "
                        f"({group.name(x)}, {group.name(y)}, {group.name(z)})"
                    )
    for x in range(r):
        validate_automorphism(algebra, group.action[x], name=group.name(x))
    ident = AlgebraMap.identity(algebra.dim)
    if group.action[group.identity_index] != ident:
        raise ActionError("identity element does not act as the identity map")
    for x in range(r):
        for y in range(r):
            comp = group.action[x].matrix @ group.action[y].matrix
            if comp != group.action[group.mul(x, y)].matrix:
                raise ActionError(
                    f"action is not a homomorphism on ({group.name(x)}, {group.name(y)})"
                )


def trivial_group(algebra):
    return FiniteGroupAction(["e"], [[0]], [AlgebraMap.identity(algebra.dim)])


def crossed_product(algebra, group):
    """The crossed product on basis (e_i x g), dim = dim(A) * |G|.

    Product convention: (a x g)(b x h) = a g(b) x gh, extended bilinearly.
    The output passes validate_algebra, which machine-checks associativity
    of the convention on every instance.
    """
    d, r = algebra.dim, group.order
    names = [
        f"{algebra.label(i)}|{group.name(j)}" for i in range(d) for j in range(r)
    ]

    def pair(i, j):
        return i * r + j

    mult = [[{} for _ in range(d * r)] for _ in range(d * r)]
    for i in range(d):
        for gj in range(r):
            act = group.action[gj]
            for k in range(d):
                gk = act.image_of_basis(k)
                prod = algebra.multiply({i: QONE}, gk)
                for hj in range(r):
                    tgt_g = group.mul(gj, hj)
                    cell = {pair(m, tgt_g): v for m, v in prod.items()}
                    mult[pair(i, gj)][pair(k, hj)] = cell
    unit = {pair(i, group.identity_index): v for i, v in algebra.unit.items()}
    out = Algebra(d * r, names, unit, mult)
    validate_algebra(out)
    return out


def generators(group, elements):
    """A generating set of the subgroup whose elements are listed: each
    element, in order, that the ones kept before it do not generate.

    The relations {v - h.v} over a subgroup span what they span over any
    generating set of it, because 1 - gh = (1 - g) + g(1 - h).
    """
    kept = []
    closure = {group.identity_index}
    for x in elements:
        if x not in closure:
            kept.append(x)
            frontier = list(closure)
            while frontier:
                frontier = [y for y in {group.mul(z, s) for z in frontier for s in kept}
                            if y not in closure]
                closure.update(frontier)
    return kept


class ConjugacyData:
    """Conjugacy classes and centralizers of a finite group."""

    def __init__(self, classes, class_of, centralizers):
        self.classes = classes              # list of sorted element lists
        self.class_of = class_of            # element index -> class index
        self.centralizers = centralizers    # per class: sorted subgroup of the rep
        self.representatives = [c[0] for c in classes]


def conjugacy_data(group):
    r = group.order
    seen = [False] * r
    classes = []
    class_of = [None] * r
    for x in range(r):
        if seen[x]:
            continue
        orbit = sorted({group.conjugate(h, x) for h in range(r)})
        for y in orbit:
            seen[y] = True
            class_of[y] = len(classes)
        classes.append(orbit)
    centralizers = []
    for cls in classes:
        g = cls[0]
        cent = [h for h in range(r) if group.mul(h, g) == group.mul(g, h)]
        centralizers.append(cent)
        if len(cent) * len(cls) != r:
            raise ActionError("orbit-stabilizer mismatch in conjugacy data")
    return ConjugacyData(classes, class_of, centralizers)


class TensorBasis:
    """Enumerated basis of k[G^s] (x) A^{(m)}: slot 0 is A, and when reduced
    is set the other m - 1 slots are Abar, else A.

    group_slots may be zero (pure algebra tensor modules).  Reduced slots
    range over the basis-aligned complement of the unit, which must then be
    basis vector 0; their values are stored as actual basis indices >= 1.
    ``reduced`` is kept per slot, for the operators that copy slots.
    Enumeration is lexicographic, group tuple major.
    """

    def __init__(self, group_order, algebra_dim, group_slots, algebra_slots, reduced,
                 unit_is_basis0):
        self.r = group_order
        self.d = algebra_dim
        self.group_slots = group_slots
        self.algebra_slots = algebra_slots
        self.reduced = (False,) + (reduced,) * (algebra_slots - 1)
        if any(self.reduced) and not unit_is_basis0:
            raise ReducedBasisError(
                "reduced tensor slots need the unit to be basis vector 0"
            )
        self.slot_sizes = [self.d - 1 if f else self.d for f in self.reduced]
        self.asize = 1
        for s in self.slot_sizes:
            self.asize *= s
        self.gsize = self.r ** group_slots
        self.size = self.gsize * self.asize

    def encode_algebra(self, atuple):
        idx = 0
        for val, flag, size in zip(atuple, self.reduced, self.slot_sizes):
            digit = val - 1 if flag else val
            idx = idx * size + digit
        return idx

    def decode_algebra(self, aidx):
        vals = []
        for flag, size in zip(reversed(self.reduced), reversed(self.slot_sizes)):
            digit = aidx % size
            aidx //= size
            vals.append(digit + 1 if flag else digit)
        vals.reverse()
        return tuple(vals)

    def encode_group(self, gtuple):
        idx = 0
        for g in gtuple:
            idx = idx * self.r + g
        return idx

    def decode_group(self, gidx):
        vals = []
        for _ in range(self.group_slots):
            vals.append(gidx % self.r)
            gidx //= self.r
        vals.reverse()
        return tuple(vals)

    def encode(self, gtuple, atuple):
        return self.encode_group(gtuple) * self.asize + self.encode_algebra(atuple)

    def decode(self, idx):
        return self.decode_group(idx // self.asize), self.decode_algebra(idx % self.asize)

    def label(self, idx, group=None, algebra=None):
        gtuple, atuple = self.decode(idx)
        gpart = ",".join(group.name(g) for g in gtuple) if group else ",".join(map(str, gtuple))
        apart = ",".join(algebra.label(a) for a in atuple) if algebra else ",".join(map(str, atuple))
        return f"({gpart}|{apart})" if self.group_slots else f"({apart})"

    def iter_group(self):
        """Group tuples in enumeration order."""
        return product(range(self.r), repeat=self.group_slots)


def integer_slots(vectors):
    """The rational vectors over one common denominator: (den, slots).

    slots[m] is den * vectors[m] as an integer vector {index: int}, or as
    the bare basis index k when that vector is {k: 1}.
    """
    den, ivecs = integer_columns(vectors)
    return den, _slots(ivecs)


def _slots(ivecs):
    """The integer vectors, each {k: 1} replaced by the bare index k."""
    return [next(iter(v)) if len(v) == 1 and 1 in v.values() else v for v in ivecs]


def integer_images(maps):
    """(den, images): images[m][i] is the slot of den * maps[m](e_i), read
    from the integer columns of the maps' matrices."""
    den = lcm(*[m.matrix.den for m in maps])
    images = []
    for m in maps:
        s = den // m.matrix.den
        images.append(_slots(
            m.matrix._cols if s == 1 else [{k: s * v for k, v in c.items()} for c in m.matrix._cols]
        ))
    return den, images


def _strides(sizes):
    """Per slot, the index offset of one step of its digit (the last slot's is 1)."""
    out, stride = [], 1
    for size in reversed(sizes):
        out.append(stride)
        stride *= size
    return out[::-1]


def tensor_operator(src, dst, terms, den=1):
    """Matrix from src to dst of a slot-wise operator on tensor modules.

    Each term (head, run, fn) copies the first head source algebra slots
    unchanged into the first head target slots, and the slots in run, a
    range of consecutive slots after them, into the last len(run) target
    slots; a copied slot must be reduced as its target is.  fn(g, a) is
    called once for each group tuple g of src (() on pure algebra bases)
    and each assignment a of the other source slots, in slot order, and
    lists the images (c, h, slots): the basis tensor (g | head, a, run)
    goes to the sum of c/den (h | head, x_0 (x) ... (x) x_m, run), where h
    is the target group tuple and each slot x_s is a basis index or an
    integer vector {index: int}.  The unit is dropped from reduced target
    slots.

    The tensors sharing (g, a) form a grid, head by run, whose source
    columns and target rows are each a fixed stride apart along either
    axis, so each image is expanded once and added to every column of the
    grid at constant cost per entry.  Coefficients are Python ints, and the
    matrix keeps them over den.  Every tensor-module operator is built here.
    """
    strides, dstrides = _strides(src.slot_sizes), _strides(dst.slot_sizes)
    place = []          # per target slot: basis index -> offset, None for a dropped unit
    for flag, st in zip(dst.reduced, dstrides):
        if flag:
            place.append([None] + [(k - 1) * st for k in range(1, dst.d)])
        else:
            place.append([k * st for k in range(dst.d)])
    values = [range(1 if f else 0, src.d) for f in src.reduced]
    offsets = [[k * st for k in range(size)] for size, st in zip(src.slot_sizes, strides)]
    goff = {h: k * dst.asize for k, h in enumerate(dst.iter_group())}
    gbases = [(g, k * src.asize) for k, g in enumerate(src.iter_group())]
    cols = [{} for _ in range(src.size)]
    for head, run, fn in terms:
        tail = dst.algebra_slots - len(run)
        if (src.reduced[:head] != dst.reduced[:head] or (run and run.start < head)
                or src.reduced[run.start : run.stop] != dst.reduced[tail:]):
            raise ValueError("copied slots must keep their reduction")
        lead = place[head:tail]
        # grid axes (count, source stride, target stride): the run's tensors,
        # lexicographic, step by its last slot's stride into adjacent rows,
        # the head's by its last slot's strides; the longer axis is inner
        axes = [(prod(src.slot_sizes[s] for s in run), strides[run.stop - 1] if run else 1, 1)]
        axes.append((prod(src.slot_sizes[:head]), strides[head - 1], dstrides[head - 1])
                    if head else (1, 0, 0))
        (n_in, s_in, r_in), (n_out, s_out, r_out) = sorted(axes, reverse=True)
        span = n_in * s_in
        outer = [(k * s_out, k * r_out) for k in range(n_out)]
        other = [s for s in range(head, src.algebra_slots) if s not in run]
        for g, gbase in gbases:
            for a, o in zip(
                product(*[values[s] for s in other]),
                map(sum, product(*[offsets[s] for s in other])),
            ):
                o += gbase
                if n_out == 1:
                    spans = ((cols[o : o + span : s_in], 0),)
                else:
                    spans = [(cols[o + so : o + so + span : s_in], ro) for so, ro in outer]
                for c, h, slots in fn(g, a):
                    base = goff[h]
                    part = [(0, c)]
                    for off, x in zip(lead, slots):
                        if x.__class__ is int:
                            t = off[x]
                            if t is None:
                                break
                            base += t
                        else:
                            part = [
                                (i + off[k], v * w)
                                for i, v in part
                                for k, w in x.items()
                                if off[k] is not None
                            ]
                            if not part:
                                break
                    else:
                        for targets, t in spans:
                            t += base
                            for i, v in part:
                                i += t
                                for col in targets:
                                    col[i] = col.get(i, 0) + v
                                    i += r_in
    return QMatrix.from_integers(dst.size, cols, den)


def tensor_index(group, algebra, p, q, reduced=True):
    """Basis of k[G^{p+1}] (x) A (x) Abar^q, or of k[G^{p+1}] (x) A^{(q+1)}
    with full slots when reduced is False."""
    return TensorBasis(group.order, algebra.dim, p + 1, q + 1, reduced, algebra.unit_is_basis0)


def algebra_tensor_basis(algebra, slots, reduced=True):
    """Pure algebra tensor basis A (x) Abar^{slots - 1}, or A^{(slots)} with
    full slots when reduced is False (group_slots = 0)."""
    return TensorBasis(1, algebra.dim, 0, slots, reduced, algebra.unit_is_basis0)
