"""Compressed homology ranks: rank d_{n+1} with the rows at the pivot
columns of d_n deleted equals rank d_{n+1} whenever d_n d_{n+1} = 0.

``HomologyResult`` ranks every differential that way; these tests compare
its ranks with the plain ``rank`` of each differential, on random exact
complexes (against the dense oracle too) and on every complex the
pipelines build for every fixture.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from thl.algebra import AlgebraMap, crossed_product
from thl.complexes import ChainComplexQ, homology
from thl.config import load_config, load_fixture
from thl.crossed import (
    CoinvariantComplex,
    ConjugacyDecomposition,
    GJOperators,
    LambdaComplex,
    PropositionComplex,
)
from thl.fixtures import fixture_names
from thl.sequences import DeRhamComplex
from thl.sparse import QMatrix, kernel_basis, rank
from thl.twisted import twisted_cyclic

from oracles import dense_rank

entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


def integer_matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: QMatrix.from_dense(data, rows, cols))


@st.composite
def exact_complexes(draw):
    """A chain complex with d_1 random and d_{n+1} = (kernel basis of d_n)
    times a random integer matrix, so d_n d_{n+1} = 0 by construction."""
    dims = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=5))
    d = [None, draw(integer_matrices(dims[0], dims[1]))]
    for n in range(2, len(dims)):
        kb = kernel_basis(d[-1])
        d.append(kb @ draw(integer_matrices(kb.cols, dims[n])))
    return ChainComplexQ(dims, d)


def dense(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


@settings(max_examples=80, deadline=None)
@given(exact_complexes())
def test_compressed_ranks_on_random_exact_complexes(chain):
    plain = [0] + [rank(chain.d[n]) for n in range(1, chain.top + 1)]
    oracle = [0] + [dense_rank(dense(chain.d[n])) for n in range(1, chain.top + 1)]
    below = None
    compressed = [0]
    for n in range(1, chain.top + 1):
        pivots = []
        compressed.append(rank(chain.d[n], skip_rows=below, pivot_cols=pivots))
        below = set(pivots)
    h = homology(chain)
    assert compressed == plain == oracle == h.ranks
    assert h.dims == [chain.dims[n] - plain[n] - plain[n + 1] for n in range(chain.top)]


def _config(name):
    if name == "half-lines-z2":
        return load_config(os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json"))
    return load_fixture(name)


def _homologies(cfg):
    """(what, HomologyResult) for the total and column homology of every
    mixed complex the pipelines build, and the plain and reduced de Rham
    homology."""
    ops = GJOperators(cfg.algebra, cfg.group)
    coinv = CoinvariantComplex(ops, cfg.max_degree)
    mixed = [
        ("connes", LambdaComplex(ops, cfg.max_degree, cfg.lambda_coinvariants).mixed),
        ("coinvariant", coinv.mixed),
        ("proposition", PropositionComplex(ops, cfg.max_degree).mixed),
    ]
    mixed += [(s.label, s) for s in ConjugacyDecomposition(coinv).stalks]
    for what, m in mixed:
        yield f"{what} total", m.total_homology()
        yield f"{what} column", m.column_homology()
    derham = DeRhamComplex(coinv)
    yield "de Rham", derham.homology().inner
    yield "reduced de Rham", derham.reduced().homology().inner


@pytest.mark.parametrize("name", [*fixture_names(), "half-lines-z2"])
def test_compressed_ranks_on_every_fixture(name):
    for what, h in _homologies(_config(name)):
        d = h.complex.d
        assert h.ranks == [0] + [rank(d[n]) for n in range(1, h.complex.top + 1)], what


def test_crossed_route_top_rank_certified_in_early_chunks():
    """HC of Q^3 x| Z/3 by the twisted route with the identity twist at N=3
    (the crossed-route benchmark): d_4 is 4680x37449 with 4160 live rows
    and rank 4160, so rank reads it in k = 37449 // 8320 = 4 stride chunks
    and the certificate must close before the last one.  A full elimination
    would pivot on columns of every residue class mod k."""
    cfg = load_fixture("triple-lines-z3")
    ag = crossed_product(cfg.algebra, cfg.group)
    h = twisted_cyclic(ag, AlgebraMap.identity(ag.dim), 3)
    assert h.ranks == [0, 8, 64, 520, 4160]
    assert h.dims == [1, 0, 1, 0]
    d = h.complex.d
    below = []
    rank(d[3], pivot_cols=below)
    pivots = []
    assert rank(d[4], skip_rows=set(below), pivot_cols=pivots) == 4160
    k = d[4].cols // (2 * 4160)
    assert k == 4
    assert max(j % k for j in pivots) < k - 1
