"""Closed-form family: group algebras Q[H] with H acted on by automorphisms.

Q[H] is ``crossed_product`` of the ground field by H acting trivially, so
its basis is H in the group's order and its unit is the identity element.
An automorphism of H permutes that basis.

* Q[H] is separable over Q (Maschke), so H_n(Q[H], Q[H]_g) = 0 for n > 0:
  HH^g = [c, 0, 0, ...] and HC^g = [c, 0, c, 0, ...], where c counts the
  <g>-orbits on the g-twisted classes h ~ x h g(x)^{-1}.
* Q[H] x| G = Q[H x| G], so every route to HC of the crossed product gives
  HC_{2k} = the number of conjugacy classes of H x| G and HC_odd = 0.

Both counts are taken from the group tables alone, by brute force.
"""

import pytest

from thl.algebra import AlgebraMap, FiniteGroupAction, crossed_product, validate_action
from thl.crossed import coinvariant_bicomplex, connes_lambda_complex, proposition_bicomplex
from thl.sparse import QMatrix
from thl.twisted import twisted_cyclic, twisted_hochschild

from fixtures_for_tests import ground_field_algebra


def _closure(gens):
    """Every product of the permutation tuples gens, the identity first."""
    ident = tuple(range(len(gens[0])))
    elems, frontier = [ident], [ident]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = tuple(s[i] for i in x)
                if y not in elems:
                    elems.append(y)
                    new.append(y)
        frontier = new
    return elems


def _compose(x, y):
    """x after y, as permutation tuples."""
    return tuple(x[i] for i in y)


def _inverse(x):
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[xi] = i
    return tuple(out)


def group_algebra(elems):
    """Q[H] for the permutation group elems (identity first)."""
    table = [[elems.index(_compose(x, y)) for y in elems] for x in elems]
    H = FiniteGroupAction([str(i) for i in range(len(elems))], table,
                          [AlgebraMap.identity(1)] * len(elems))
    return crossed_product(ground_field_algebra(), H)


def _automorphism(elems, phi):
    """The algebra map of Q[H] sending basis vector x to phi(x)."""
    images = [elems.index(phi(x)) for x in elems]
    n = len(elems)
    return AlgebraMap(QMatrix.from_dense([[int(images[j] == i) for j in range(n)]
                                          for i in range(n)]))


def twisted_class_orbits(elems, phi):
    """The number of <phi>-orbits on the phi-twisted classes of H."""
    classes = {frozenset(_compose(_compose(x, h), _inverse(phi(x))) for x in elems)
               for h in elems}

    def orbit(c):
        out = set()
        while c not in out:
            out.add(c)
            c = frozenset(map(phi, c))
        return frozenset(out)

    return len({orbit(c) for c in classes})


def semidirect_classes(elems, phis):
    """The number of conjugacy classes of H x| G, G = Z/|phis| with
    phis[i] the action of its i-th element (phis[0] the identity)."""
    r = len(phis)
    pairs = [(h, i) for i in range(r) for h in elems]

    def mul(a, b):
        return _compose(a[0], phis[a[1]](b[0])), (a[1] + b[1]) % r

    def inv(a):
        i = (-a[1]) % r
        return phis[i](_inverse(a[0])), i

    return len({frozenset(mul(mul(x, a), inv(x)) for x in pairs) for a in pairs})


Z4 = _closure([(1, 2, 3, 0)])
Z3 = _closure([(1, 2, 0)])
V4 = _closure([(1, 0, 3, 2), (2, 3, 0, 1)])
S3 = _closure([(1, 0, 2), (1, 2, 0)])


def _conjugation(u):
    return lambda x: _compose(_compose(u, x), _inverse(u))


CASES = [
    pytest.param(Z4, _inverse, id="Z4-inversion"),
    pytest.param(Z3, _inverse, id="Z3-inversion"),
    pytest.param(V4, _conjugation((1, 0, 2, 3)), id="V4-swap"),
    pytest.param(S3, _conjugation((1, 0, 2)), id="S3-transposition"),
]


def test_closed_forms_count_known_groups():
    """The counts themselves: Z/4 has two inversion-twisted classes, {0, 2}
    and {1, 3}, each fixed; Q[Z/4] x| Z/2 = Q[D_4] has five classes; the
    untwisted count is the class number."""
    assert twisted_class_orbits(Z4, _inverse) == 2
    assert twisted_class_orbits(Z4, lambda x: x) == 4
    assert twisted_class_orbits(S3, lambda x: x) == 3
    assert semidirect_classes(Z4, [lambda x: x, _inverse]) == 5


@pytest.mark.parametrize("elems, phi", CASES)
def test_twisted_group_algebra_is_closed_form(elems, phi):
    A = group_algebra(elems)
    g = _automorphism(elems, phi)
    c = twisted_class_orbits(elems, phi)
    assert twisted_hochschild(A, g, 3).dims == [c, 0, 0, 0]
    assert twisted_cyclic(A, g, 3).dims == [c, 0, c, 0]


@pytest.mark.parametrize("elems, phi", CASES)
def test_crossed_group_algebra_has_class_count(elems, phi):
    """Q[H] x| Z/2 through all three HC routes: HC_{2k} = #classes(H x| Z/2)."""
    A = group_algebra(elems)
    G = FiniteGroupAction(["e", "s"], [[0, 1], [1, 0]],
                          [AlgebraMap.identity(A.dim), _automorphism(elems, phi)])
    validate_action(A, G)
    c = semidirect_classes(elems, [lambda x: x, phi])
    assert proposition_bicomplex(A, G, 2).dims == [c, 0, c]
    assert coinvariant_bicomplex(A, G, 2).dims == [c, 0, c]
    assert connes_lambda_complex(A, G, 2).dims == [c, 0, c]
