"""The group enters each quotient through its generators and each
group-direction operator through per-element twists: these tests rebuild
every quotient from all the relations of the group (or the block-diagonal
relations of the stalks) and every bbar/Bbar from the formulas of the
``crossed`` module docstring, and require equal results."""

import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from thl.algebra import AlgebraMap, FiniteGroupAction, conjugacy_data, generators
from thl.config import load_config, load_fixture
from thl.crossed import (
    CoinvariantComplex,
    ConjugacyDecomposition,
    GJOperators,
    LambdaComplex,
    PropositionComplex,
    group_action_operator,
    lambda_cyclic_operator,
)
from thl.fixtures import fixture_names
from thl.quotient import coinvariant_relations, quotient_by
from thl.rational import QONE
from thl.sparse import block_diag

HALF_LINES = os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json")
CONFIGS = [*fixture_names(), "half-lines-z2"]


def _config(name):
    return load_config(HALF_LINES) if name == "half-lines-z2" else load_fixture(name)


def _fields(pres):
    return (pres.ambient_dim, pres.quotient_dim, pres.relation_basis, pres.projection,
            pres.section, pres.pivot_rows, pres.free_rows)


def _assert_same(presentations, reference):
    assert len(presentations) == len(reference)
    for n, (pres, ref) in enumerate(zip(presentations, reference)):
        assert _fields(pres) == _fields(ref), n


def _quotient(size, acts):
    return quotient_by(size, coinvariant_relations(size, acts))


# -- quotients from generators --------------------------------------------

@pytest.mark.parametrize("name", CONFIGS)
def test_quotients_equal_those_of_every_group_element(name):
    """Coinvariant, Connes (both flags) and stalk presentations from a
    generating set equal those from every element of the group."""
    cfg = _config(name)
    group, N = cfg.group, cfg.max_degree
    ops = GJOperators(cfg.algebra, group)
    everyone = range(group.order)

    coinv = CoinvariantComplex(ops, N)
    ref = []
    for n in range(N + 2):
        basis = ops.basis(0, n)
        ref.append(_quotient(basis.size, [
            group_action_operator(group, h, basis, ops.alg_twist(h, n)) for h in everyone
        ]))
    _assert_same(coinv.pres, ref)

    for flag in (True, False):
        ref = []
        for n in range(N + 2):
            basis = ops.basis(0, n, reduced=False)
            acts = [lambda_cyclic_operator(cfg.algebra, group, n)]
            if flag:
                acts += [group_action_operator(group, h, basis, ops.alg_twist(h, n, reduced=False))
                         for h in everyone]
            ref.append(_quotient(basis.size, acts))
        _assert_same(LambdaComplex(ops, N, flag).pres, ref)

    deco = ConjugacyDecomposition(coinv)
    for stalk in deco.stalks:
        ref = [_quotient(ops.basis(0, n).asize, [ops.alg_twist(h, n) for h in stalk.centralizer])
               for n in range(N + 2)]
        _assert_same(stalk.pres, ref)


@pytest.mark.parametrize("name", CONFIGS)
def test_crossed_quotient_is_the_sum_of_per_element_quotients(name):
    """Degree n of the crossed-product complex, presented as the direct sum
    of the per-element (1 - T) quotients, equals the quotient by the
    block-diagonal relations of all its blocks."""
    cfg = _config(name)
    ops = GJOperators(cfg.algebra, cfg.group)
    pc = PropositionComplex(ops, cfg.max_degree)
    ref = []
    for n in range(pc.n_internal + 1):
        twists = [ops.T(p, n - p) for p in range(n + 1)]
        rel = block_diag([coinvariant_relations(T.rows, [T]) for T in twists])
        ref.append(quotient_by(rel.rows, rel))
    _assert_same(pc.mixed.presentations, ref)


# -- generators -----------------------------------------------------------

def _permutation_group(n):
    """S_n acting trivially on Q, its elements the permutations in
    lexicographic order (the identity first)."""
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms]
    names = ["".join(map(str, p)) for p in perms]
    return FiniteGroupAction(names, table, [AlgebraMap.identity(1)] * len(perms))


def _closure(group, elements):
    out = {group.identity_index}
    while True:
        more = {group.mul(x, y) for x in out for y in elements} - out
        if not more:
            return out
        out |= more


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 23), max_size=3), st.randoms())
def test_generators_generate_the_subgroup(n, picks, rnd):
    """For a subgroup H of S_n and the centralizer in S_n of an element of
    H, listed in any order, the kept elements generate the whole subgroup,
    and each was outside the subgroup generated by those kept before it."""
    group = _permutation_group(n)
    H = _closure(group, [x % group.order for x in picks])
    x = sorted(H)[rnd.randrange(len(H))]
    cent = {h for h in range(group.order) if group.mul(h, x) == group.mul(x, h)}
    for sub in (H, cent):
        listed = sorted(sub)
        rnd.shuffle(listed)
        kept = generators(group, listed)
        assert _closure(group, kept) == sub
        for k, g in enumerate(kept):
            assert g not in _closure(group, kept[:k])


def test_generators_of_the_fixture_groups():
    z3 = load_fixture("triple-lines-z3").group
    s3 = load_fixture("triple-lines-s3").group
    assert [z3.name(g) for g in generators(z3, range(z3.order))] == ["s"]
    assert [s3.name(g) for g in generators(s3, range(s3.order))] == ["t12", "t13"]
    assert generators(load_fixture("ground-field").group, [0]) == []
    for rep, cent in zip(*(lambda c: (c.representatives, c.centralizers))(conjugacy_data(s3))):
        assert _closure(s3, generators(s3, cent)) == set(cent), s3.name(rep)


# -- bbar and Bbar against the docstring formulas --------------------------

def _twisted_image(cfg, h, atuple):
    """h applied to every slot of the reduced tensor atuple, dense: the
    unit is dropped from the reduced slots 1, 2, ..."""
    cols = [cfg.group.action[h].image_of_basis(a) for a in atuple]
    out = {}
    for picks in itertools.product(*[sorted(c.items()) for c in cols]):
        if any(k == 0 for k, _ in picks[1:]):
            continue
        coef = QONE
        for _, v in picks:
            coef *= v
        key = tuple(k for k, _ in picks)
        out[key] = out.get(key, 0) + coef
    return out


def _dense_group_operator(ops, cfg, p_src, p_dst, q, terms):
    """Columns {row: rational} of the operator whose image of (gt | a) is
    the sum of c (h | x(a)) over terms(gt) = [(c, h, x)], x(a) the twist of
    the element x applied slotwise."""
    src, dst = ops.basis(p_src, q), ops.basis(p_dst, q)
    cols = []
    for j in range(src.size):
        gt, a = src.decode(j)
        col = {}
        for c, h, x in terms(gt):
            for image, v in _twisted_image(cfg, x, a).items():
                i = dst.encode(h, image)
                col[i] = col.get(i, 0) + c * v
        cols.append({i: v for i, v in col.items() if v})
    return cols


ORACLE_CONFIGS = ["triple-lines-z3", "triple-lines-s3", "half-lines-z2"]


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_bbar_and_Bbar_match_the_docstring_formulas(name):
    """bbar(g_0..g_p | a) = (-1)^q [sum_i (-1)^i (.., g_i g_{i+1}, .. | a)
    + (-1)^p (g_p g_0, .., g_{p-1} | g_p(a))] and
    Bbar(g_0..g_p | a) = (-1)^q sum_i (-1)^{ip}
    (e, g_{p-i+1}, .., g_p, g_0, .., g_{p-i} | h_i(a)), h_i = g_{p-i+1}..g_p.
    On Z/3 two moves of a tuple can land on one target tuple, and their
    blocks add; S3 is not abelian; the half-lines action has non-integer
    entries."""
    cfg = _config(name)
    grp = cfg.group
    e = grp.identity_index
    ops = GJOperators(cfg.algebra, grp)
    shared = 0
    for p in range(4):
        for q in range(4 - p):
            sign = -1 if q % 2 else 1

            def bbar_terms(gt, p=p, sign=sign):
                out = [(sign * (-1) ** i, gt[:i] + (grp.mul(gt[i], gt[i + 1]),) + gt[i + 2:], e)
                       for i in range(p)]
                out.append((sign * (-1) ** p, (grp.mul(gt[p], gt[0]),) + gt[1:p], gt[p]))
                nonlocal shared
                shared += len({h for _, h, _ in out}) < len(out)
                return out

            def Bbar_terms(gt, p=p, sign=sign):
                return [(sign * (-1) ** (i * p), (e,) + gt[p - i + 1:] + gt[:p - i + 1],
                         grp.product(gt[p - i + 1:]))
                        for i in range(p + 1)]

            if p >= 1:
                got = ops.bbar(p, q)
                want = _dense_group_operator(ops, cfg, p, p - 1, q, bbar_terms)
                assert [got.column(j) for j in range(got.cols)] == want, (p, q)
            got = ops.Bbar(p, q)
            want = _dense_group_operator(ops, cfg, p, p + 1, q, Bbar_terms)
            assert [got.column(j) for j in range(got.cols)] == want, (p, q)
    assert shared or name != "triple-lines-z3"

