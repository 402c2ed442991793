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
from math import gcd, lcm

import pytest

from thl.config import load_config, load_fixture
from thl.crossed import (
    CoinvariantComplex, ConjugacyDecomposition, GJOperators, LambdaComplex, PropositionComplex,
)
from thl.fixtures import fixture_names
from thl.twisted import HKBicomplex, connes_complex

NAMES = [*fixture_names(), "half-lines-z2"]


def _config(name):
    if name == "half-lines-z2":
        return load_config(os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json"))
    return load_fixture(name)


def _characters(cfg):
    """chi(h), the trace of each group element h on A."""
    group = cfg.group
    return [sum(Fraction(group.action[h].matrix.entry(i, i)) for i in range(cfg.algebra.dim))
            for h in range(group.order)]


@pytest.mark.parametrize("name", NAMES)
def test_module_sizes_are_character_counts(name):
    """(A (x) Abar^n)/<g> for each element g, the crossed-product quotient
    sum_p (|G| - 1)^p sum_x stalk(x, n - p) (it keeps the non-degenerate
    group tuples, g_i != e for i >= 1; sigma is onto them, each fibre
    holding (|G| - 1)^p tuples), the coinvariants (1/|G|) sum_h trace(h) |C_G(h)| and
    each stalk, the average over the centralizer of its class."""
    cfg = _config(name)
    group = cfg.group
    elements = range(group.order)
    chi = _characters(cfg)
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
    assert prop.dims == [
        sum((group.order - 1) ** p * sum(stalk(x, n - p) for x in elements)
            for p in range(n + 1))
        for n in degrees
    ]
    coinv = CoinvariantComplex(ops, cfg.max_degree)
    centralizer_order = [sum(group.mul(h, x) == group.mul(x, h) for x in elements)
                         for h in elements]
    assert sizes(coinv.mixed) == [
        sum(trace(h, n) * centralizer_order[h] for h in elements) / group.order
        for n in degrees
    ]
    deco = ConjugacyDecomposition(coinv)
    for st, rep, centralizer in zip(deco.stalks, deco.conj.representatives,
                                    deco.conj.centralizers):
        assert sizes(st) == [average(centralizer, n) for n in degrees], rep



@pytest.mark.parametrize("name", NAMES)
def test_connes_sizes_are_character_counts(name):
    """The Connes complexes divide A^{(n+1)} by the signed rotation t.  With
    k = q(n + 1) + r, c = gcd(r, n + 1) and L = (n + 1)/c, the power t^k
    permutes the slots in c cycles of length L and twists each cycle by
    x^{qL + r/c}, x the twist, so its trace is (-1)^{nk} chi(x^{qL + r/c})^c;
    t^{n+1} is the diagonal twist, so t has finite order.  The twisted
    Connes complex of g (twist g) averages that trace over k < (n + 1) ord g;
    the group-indexed one without coinvariants sums the stalks, that of g
    twisted by g^{-1}.  With coinvariants h acts on every slot and fixes
    the stalks of the g in C(h): the count averages
    (-1)^{nk} chi(h^L g^{-(qL + r/c)})^c over h and over
    k < lcm_g (n + 1) ord g, summed over g in C(h)."""
    cfg = _config(name)
    group = cfg.group
    elements = range(group.order)
    chi = _characters(cfg)
    ops = GJOperators(cfg.algebra, group)
    degrees = range(cfg.max_degree + 2)

    def powers(x):
        out = [group.identity_index]
        while (nxt := group.mul(out[-1], x)) != group.identity_index:
            out.append(nxt)
        return out

    def power(x, m):
        p = powers(x)
        return p[m % len(p)]

    def rotation(n, k):
        """(sign, c, L, e): t^k has c slot cycles of length L, each twisted
        by the e-th power of the twist."""
        q, r = divmod(k, n + 1)
        c = gcd(r, n + 1)
        L = (n + 1) // c
        return (-1) ** (n * k), c, L, q * L + r // c

    def twisted(x, n):
        K = (n + 1) * len(powers(x))
        return sum(s * chi[power(x, e)] ** c for s, c, _, e in
                   (rotation(n, k) for k in range(K))) / K

    def coinvariant(n):
        K = lcm(*[(n + 1) * len(powers(g)) for g in elements])
        total = sum(
            s * chi[group.mul(power(h, L), power(group.inverse[g], e))] ** c
            for h in elements for g in elements if group.mul(h, g) == group.mul(g, h)
            for s, c, L, e in (rotation(n, k) for k in range(K))
        )
        return Fraction(total, group.order * K)

    def sizes(mixed):
        return [p.quotient_dim for p in mixed.presentations]

    for g in elements:
        twisted_connes = connes_complex(ops.element(g), cfg.max_degree)
        assert sizes(twisted_connes) == [twisted(g, n) for n in degrees], group.name(g)
    assert sizes(LambdaComplex(ops, cfg.max_degree, False).mixed) == [
        sum(twisted(group.inverse[g], n) for g in elements) for n in degrees]
    assert sizes(LambdaComplex(ops, cfg.max_degree, True).mixed) == [
        coinvariant(n) for n in degrees]
