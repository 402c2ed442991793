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
    mixed += [(s.mixed.label, s.mixed) for s in ConjugacyDecomposition(coinv).stalks]
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
