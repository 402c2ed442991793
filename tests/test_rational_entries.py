"""Operators and pipelines on inputs with non-integer structure constants
and action entries.

half-lines-z2 is Q^2 on the basis (1, u) with u = e/2 for an idempotent e,
so u.u = u/2, and Z/2 swaps the two points: s(u) = 1/2 - u.  Every builder
is compared with the dense oracles of oracles.py, which share no code with
the library, on this algebra and on the dual numbers with x -> x/3.
"""

import hashlib
import os
from fractions import Fraction
from itertools import product

import pytest

from thl.algebra import AlgebraMap, FiniteGroupAction
from thl.cli import run
from thl.config import load_config
from thl.crossed import GJOperators, full_pair_check, identity_suite, lambda_cyclic_operator
from thl.report import emit_machine
from thl.sparse import QMatrix
from thl.twisted import twist_matrix, twisted_B, twisted_b

from fixtures_for_tests import PINNED_SHA256, dual_numbers_algebra
import oracles

HALF_LINES = os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json")
HALF_LINES_MACHINE_SHA256 = PINNED_SHA256["all --config tests/data/half-lines-z2.json"]


def _dense(m):
    out = oracles.zero_mat(m.rows, m.cols)
    for j in range(m.cols):
        for i, v in m.column(j).items():
            out[i][j] = v
    return out


def _dense_algebra(algebra):
    d = algebra.dim
    table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, v in algebra.mult[i][j].items():
                table[i][j][k] = v
    unit = [Fraction(0)] * d
    for k, v in algebra.unit.items():
        unit[k] = v
    return oracles.DenseAlgebra(d, table, unit)


def _dense_map(amap):
    return [[amap.matrix.entry(i, j) for j in range(amap.dim)] for i in range(amap.dim)]


def _normalized(d, n):
    """(I, P): the inclusion of A (x) Abar^n into A^{(n+1)}, unit = e_0, and
    the projection killing tensors with a unit in slots 1..n."""
    full = list(product(range(d), repeat=n + 1))
    reduced = list(product(range(d), *[range(1, d)] * n))
    inc = oracles.zero_mat(len(full), len(reduced))
    proj = oracles.zero_mat(len(reduced), len(full))
    for k, tup in enumerate(reduced):
        inc[oracles.tuple_index(tup, d)][k] = Fraction(1)
        proj[k][oracles.tuple_index(tup, d)] = Fraction(1)
    return inc, proj


def _third_dual_numbers():
    """Dual numbers with x -> x/3 and a Z/2 table carrying that map.

    The map has infinite order, so this is no group action; the operator
    builders read only the table and the matrices, which is all the
    blockwise oracle comparison needs."""
    A = dual_numbers_algebra()
    g = AlgebraMap(QMatrix.from_dense([[1, 0], [0, Fraction(1, 3)]]))
    return A, FiniteGroupAction(["e", "s"], [[0, 1], [1, 0]], [AlgebraMap.identity(2), g])


def _half_lines():
    cfg = load_config(HALF_LINES)
    return cfg.algebra, cfg.group


CASES = {"half-lines-z2": _half_lines, "dual-numbers-third": _third_dual_numbers}


@pytest.mark.parametrize("case", sorted(CASES))
def test_operators_match_dense_oracles(case):
    A, G = CASES[case]()
    alg = _dense_algebra(A)
    g = G.action[1]
    gd = _dense_map(g)
    for n in range(4):
        inc = _normalized(A.dim, n)[0]
        assert _dense(twist_matrix(A, g, n)) == oracles.twist_diag_matrix(gd, n), n
        assert _dense(twisted_B(A, g, n)) == oracles.mat_mul(
            _normalized(A.dim, n + 1)[1],
            oracles.mat_mul(oracles.degree_raise_matrix(alg, gd, n), inc),
        ), n
        if n >= 1:
            face = oracles.face_matrix(alg, gd, n)
            assert _dense(twisted_b(A, g, n)) == face, n
            assert _dense(twisted_b(A, g, n, reduced=True)) == oracles.mat_mul(
                _normalized(A.dim, n - 1)[1], oracles.mat_mul(face, inc)
            ), n
        lam = _dense(lambda_cyclic_operator(A, G, n))
        size = A.dim ** (n + 1)
        for g0 in range(G.order):
            block = [row[g0 * size : (g0 + 1) * size] for row in lam[g0 * size : (g0 + 1) * size]]
            inverse = _dense_map(G.action[G.inverse[g0]])
            assert block == oracles.cyclic_matrix(alg, inverse, n), (n, g0)


def test_operator_identities_on_half_lines():
    A, G = _half_lines()
    ops = GJOperators(A, G)
    suite = identity_suite(ops, 3)
    assert all(ok for _, ok, _ in suite), [s for s in suite if not s[1]]
    assert all(ok for _, ok in full_pair_check(ops, 2))


def test_half_lines_dims():
    """Q^2 x| Z/2 is M_2(Q): HC is that of Q and HH_{>0} vanishes; s fixes
    no point, so the s-twisted theory is zero."""
    report = run("all", load_config(HALF_LINES))
    dims = {name: [d for _, d in rows] for name, rows in report.dim_tables}
    for name in ("hc-crossed", "hc-coinv", "hc-lambda"):
        assert dims[name] == [1, 0, 1, 0], name
    assert dims["hh-G"] == [1, 0, 0, 0]
    assert dims["hc-twisted[s]"] == [0, 0, 0, 0]
    digest = hashlib.sha256(emit_machine(report).encode()).hexdigest()
    assert digest == HALF_LINES_MACHINE_SHA256
