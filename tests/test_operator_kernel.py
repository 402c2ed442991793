"""Every tensor-module operator against the per-tuple reference kernel.

The twist is a Kronecker power of its slot maps (``sparse.kron``), and
each other builder states its formula as copied slot runs for
``algebra.tensor_operator``; here every formula is stated one basis
tensor at a time and expanded by ``oracles.reference_tensor_operator``.
The matrices must be equal as stored: same shape, denominator and
integer columns.
"""

import os

import pytest

from thl.algebra import (
    AlgebraMap,
    algebra_tensor_basis,
    crossed_product,
    integer_images,
    tensor_index,
    trivial_group,
)
from thl.config import load_config, load_fixture
from thl.fixtures import fixture_names
from thl.crossed import GJOperators, beta_map, lambda_cyclic_operator
from thl.rational import QONE
from thl.sparse import integer_columns
from thl.sequences import _identity_slot_map, derham_d_ambient
from thl.twisted import twist_matrix, twisted_B, twisted_b

from oracles import one_int_per_row, reference_tensor_operator

# the five fixtures, and a config whose action has denominator 2
FIXTURES = [*fixture_names(), "half-lines-z2"]


def _instance(name):
    if name == "half-lines-z2":
        cfg = load_config(os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json"))
    else:
        cfg = load_fixture(name)
    return cfg.algebra, cfg.group


def _crossed():
    # products of non-unit basis vectors of Q^3 x| Z/3 have unit components,
    # which reduced target slots drop
    algebra, group = _instance("triple-lines-z3")
    cp = crossed_product(algebra, group)
    return cp, trivial_group(cp)


def ref_twist(algebra, g, n, reduced):
    basis = algebra_tensor_basis(algebra, n + 1, reduced)
    den, (img,) = integer_images([g])
    return reference_tensor_operator(
        basis, basis, lambda _, a: [(1, (), [img[x] for x in a])], den ** (n + 1)
    )


def ref_b(algebra, g, n, reduced):
    d = algebra.dim
    den, vecs = integer_columns(
        [algebra.basis_product(x, y) for x in range(d) for y in range(d)]
        + [algebra.multiply(g.image_of_basis(x), {y: QONE}) for x in range(d) for y in range(d)]
    )
    # a slot {k: 1} is the bare basis index k
    slots = [next(iter(v)) if len(v) == 1 and 1 in v.values() else v for v in vecs]
    prod, wrap = slots[: d * d], slots[d * d :]

    def terms(_, a):
        out = [
            (-1 if i % 2 else 1, (), a[:i] + (prod[a[i] * d + a[i + 1]],) + a[i + 2 :])
            for i in range(n)
        ]
        out.append((-1 if n % 2 else 1, (), (wrap[a[n] * d + a[0]],) + a[1:n]))
        return out

    return reference_tensor_operator(
        algebra_tensor_basis(algebra, n + 1, reduced), algebra_tensor_basis(algebra, n, reduced),
        terms, den,
    )


def ref_B(algebra, g, n):
    den, (img,) = integer_images([g])

    def terms(_, a):
        return [
            (
                (-1 if n * j % 2 else 1) * den ** (j - 1),
                (),
                (0,) + tuple(img[x] for x in a[j:]) + a[:j],
            )
            for j in range(1, n + 2)
        ]

    return reference_tensor_operator(
        algebra_tensor_basis(algebra, n + 1), algebra_tensor_basis(algebra, n + 2), terms, den ** n
    )


def _check_twisted(algebra, g, top):
    for reduced in (False, True):
        # no slot past slot 0: the twist is g itself
        assert twist_matrix(algebra, g, 0, reduced) == g.matrix
    for n in range(top + 1):
        for reduced in (False, True):
            assert twist_matrix(algebra, g, n, reduced) == ref_twist(algebra, g, n, reduced)
            if n >= 1:
                assert twisted_b(algebra, g, n, reduced) == ref_b(algebra, g, n, reduced)
        assert twisted_B(algebra, g, n) == ref_B(algebra, g, n)


def test_operators_are_one_int_per_row():
    """The scatter constructors and the twist's Kronecker power key each
    row by one int object from a row table, past the 256 ints CPython
    shares: b of Q^3 x| Z/3 at degree 3, bbar(3, 0) on S3 and the t12 twist
    of Q^3 at degree 7."""
    cp, _ = _crossed()
    algebra, group = _instance("triple-lines-s3")
    t12 = group.action[group.element_names.index("t12")]
    for m, rows in [
        (twisted_b(cp, AlgebraMap.identity(cp.dim), 3, reduced=True), 576),
        (GJOperators(algebra, group).bbar(3, 0), 648),
        (twist_matrix(algebra, t12, 7, reduced=True), 384),
    ]:
        assert m.rows == rows and one_int_per_row(m)


@pytest.mark.parametrize("name", FIXTURES)
def test_twisted_builders_match_reference(name):
    """Through degree 3, and through degree 6 on half-lines-z2: its action
    has denominator 2 and Abar dimension 1, so its Kronecker powers are
    cheap and put the twist over denominators up to 2^7."""
    algebra, group = _instance(name)
    for g in group.action:
        _check_twisted(algebra, g, 6 if name == "half-lines-z2" else 3)


def test_twisted_builders_match_reference_on_crossed_product():
    cp, _ = _crossed()
    g = AlgebraMap.identity(cp.dim)
    _check_twisted(cp, g, 3)
    for reduced in (False, True):
        assert twisted_b(cp, g, 4, reduced) == ref_b(cp, g, 4, reduced)


@pytest.mark.parametrize("name", FIXTURES)
def test_group_slot_builders_match_reference(name):
    algebra, group = _instance(name)
    den, img = integer_images(group.action)
    for n in range(4):
        full = tensor_index(group, algebra, 0, n, reduced=False)
        reduced = tensor_index(group, algebra, 0, n)

        sign = -1 if n % 2 else 1
        assert lambda_cyclic_operator(algebra, group, n) == reference_tensor_operator(
            full, full,
            lambda g, a: [(sign, g, (img[group.inverse[g[0]]][a[n]],) + a[:n])], den,
        )
        assert derham_d_ambient(algebra, group, n) == reference_tensor_operator(
            reduced, tensor_index(group, algebra, 0, n + 1), lambda g, a: [(1, g, (0,) + a)]
        )
        for src, dst in ((reduced, full), (full, reduced)):
            assert _identity_slot_map(src, dst) == reference_tensor_operator(
                src, dst, lambda g, a: [(1, g, a)]
            )
        for p in (1, 2):
            basis = tensor_index(group, algebra, p, n, reduced=False)
            assert beta_map(algebra, group, p, n) == reference_tensor_operator(
                basis, basis, lambda gt, a: [(1, gt[1:] + (group.product(gt),), a)]
            )


@pytest.mark.parametrize("name", FIXTURES)
def test_group_direction_blocks_match_reference(name):
    """bbar and Bbar, assembled from the kept twist blocks, against their
    formulas expanded per basis tensor with every twist over one
    denominator."""
    algebra, group = _instance(name)
    ops = GJOperators(algebra, group)
    den, img = integer_images(group.action)
    e = group.identity_index

    def twisted(c, h, x, a):
        return c, h, [img[x][y] for y in a]

    for q in range(3):
        scale = den ** (q + 1)
        koszul = -1 if q % 2 else 1
        for p in range(1, 3):
            def bbar_terms(gt, a, p=p):
                out = [
                    twisted(-koszul if i % 2 else koszul,
                            gt[:i] + (group.mul(gt[i], gt[i + 1]),) + gt[i + 2 :], e, a)
                    for i in range(p)
                ]
                wrap = (group.mul(gt[p], gt[0]),) + gt[1:p]
                out.append(twisted(-koszul if p % 2 else koszul, wrap, gt[p], a))
                return out

            assert ops.bbar(p, q) == reference_tensor_operator(
                ops.basis(p, q), ops.basis(p - 1, q), bbar_terms, scale
            )
        for p in range(3):
            def Bbar_terms(gt, a, p=p):
                return [
                    twisted(-koszul if i * p % 2 else koszul,
                            (e,) + gt[p - i + 1 :] + gt[: p - i + 1],
                            group.product(gt[p - i + 1 :]), a)
                    for i in range(p + 1)
                ]

            assert ops.Bbar(p, q) == reference_tensor_operator(
                ops.basis(p, q), ops.basis(p + 1, q), Bbar_terms, scale
            )
