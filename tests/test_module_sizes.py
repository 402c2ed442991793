"""Closed-form module sizes.

Every quotient module the pipelines build divides a tensor module by a
finite group acting linearly, so over Q its dimension is the group average
of the traces (Burnside's lemma; Serre, *Linear Representations of Finite
Groups*, ch. 2).  With chi(h) the trace of h on A, h fixes the unit, so its
trace on Abar is chi(h) - 1 and its trace on A (x) Abar^n is
chi(h) (chi(h) - 1)^n.  These tests compare every presentation's
quotient_dim, through the internal degree N + 1, with that count, in exact
arithmetic.
"""

import os
from fractions import Fraction

import pytest

from thl.config import load_config, load_fixture
from thl.crossed import CoinvariantComplex, ConjugacyDecomposition, GJOperators, PropositionComplex
from thl.fixtures import fixture_names
from thl.twisted import HKBicomplex

NAMES = [*fixture_names(), "half-lines-z2"]


def _config(name):
    if name == "half-lines-z2":
        return load_config(os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json"))
    return load_fixture(name)


@pytest.mark.parametrize("name", NAMES)
def test_module_sizes_are_character_counts(name):
    """(A (x) Abar^n)/<g> for each element g, the crossed-product quotient
    sum_p |G|^p sum_x stalk(x, n - p) (sigma is onto, each fibre holds
    |G|^p tuples), the coinvariants (1/|G|) sum_h trace(h) |C_G(h)| and
    each stalk, the average over the centralizer of its class."""
    cfg = _config(name)
    group = cfg.group
    elements = range(group.order)
    chi = [sum(Fraction(group.action[h].matrix.entry(i, i)) for i in range(cfg.algebra.dim))
           for h in elements]
    ops = GJOperators(cfg.algebra, group)
    degrees = range(cfg.max_degree + 2)

    def trace(h, n):
        """Trace of h on A (x) Abar^n."""
        return chi[h] * (chi[h] - 1) ** n

    def average(subgroup, n):
        return sum(trace(h, n) for h in subgroup) / len(subgroup)

    def stalk(x, n):
        powers = [group.identity_index]
        while (nxt := group.mul(powers[-1], x)) != group.identity_index:
            powers.append(nxt)
        return average(powers, n)

    def sizes(mixed):
        return [p.quotient_dim for p in mixed.presentations]

    for g in elements:
        twisted = HKBicomplex(ops.element(g), cfg.max_degree).mixed
        assert sizes(twisted) == [stalk(g, n) for n in degrees], group.name(g)
    prop = PropositionComplex(ops, cfg.max_degree).mixed
    assert sizes(prop) == [
        sum(group.order ** p * sum(stalk(x, n - p) for x in elements) for p in range(n + 1))
        for n in degrees
    ]
    coinv = CoinvariantComplex(ops, cfg.max_degree)
    centralizer_order = [sum(group.mul(h, x) == group.mul(x, h) for x in elements)
                         for h in elements]
    assert sizes(coinv.mixed) == [
        sum(trace(h, n) * centralizer_order[h] for h in elements) / group.order
        for n in degrees
    ]
    for st in ConjugacyDecomposition(coinv).stalks:
        assert sizes(st.mixed) == [average(st.centralizer, n) for n in degrees], st.rep
