"""Compressed homology ranks: rank d_{n+1} with the rows at the pivot
columns of d_n deleted equals rank d_{n+1} whenever d_n d_{n+1} = 0.

``HomologyResult`` ranks every differential that way; these tests compare
its ranks with the plain ``rank`` of each differential, on random exact
complexes (against the dense oracle too) and on every complex the
pipelines build for every fixture.
"""

import os
from hashlib import sha256

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
from thl import sparse
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


# sha256 of repr(pivot_cols) of d_3 and d_4 below, computed by the
# heap-and-reduce rank that preceded the annihilators and length buckets
CROSSED_ROUTE_PIVOTS_SHA256 = {
    3: "f26bd85cee2fac6625ef97d30088f31dd8d0ee383f023e3738def10c358759fd",
    4: "18fa154a46886c82bedb829d0c602f23641498209571413ff6c4a164b190a3e7",
}


def test_crossed_route_top_rank_certified_in_early_chunks(monkeypatch):
    """HC of Q^3 x| Z/3 by the twisted route with the identity twist at N=3
    (the crossed-route benchmark), ranked as ``HomologyResult`` ranks it.
    d_3 is 585x4680 with 521 live rows and rank 520, so rank reads it in
    k = 4680 // 1042 = 4 stride chunks: chunk 0 is one short of the bound
    and its one annihilator kills every later column, so every pivot lies
    in chunk 0 and no later column is reduced.  d_4 is 4680x37449 with 4160
    live rows and rank 4160, k = 37449 // 8320 = 4, and its certificate
    closes in chunk 0.  Both pivot lists are the earlier algorithm's."""
    cfg = load_fixture("triple-lines-z3")
    ag = crossed_product(cfg.algebra, cfg.group)
    h = twisted_cyclic(ag, AlgebraMap.identity(ag.dim), 3)
    assert h.ranks == [0, 8, 64, 520, 4160]
    assert h.dims == [1, 0, 1, 0]
    d = h.complex.d
    below = None
    for n in (1, 2):
        pivots = []
        rank(d[n], skip_rows=below, pivot_cols=pivots)
        below = set(pivots)
    reduced = []
    reduce = sparse._reduce

    def counted(col, *log):
        reduced.append(col)
        return reduce(col, *log)

    monkeypatch.setattr(sparse, "_reduce", counted)
    for n, rk in ((3, 520), (4, 4160)):
        pivots = []
        assert rank(d[n], skip_rows=below, pivot_cols=pivots) == rk
        assert d[n].cols // (2 * len(set().union(*d[n]._cols) - below)) == 4
        assert all(j % 4 == 0 for j in pivots)
        assert sha256(repr(pivots).encode()).hexdigest() == CROSSED_ROUTE_PIVOTS_SHA256[n]
        assert not reduced
        below = set(pivots)
