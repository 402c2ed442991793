"""Library-level fixture objects shared by the test modules (the CLI has
its own serialized copies; these avoid going through config parsing), and
the table of pinned report digests."""

from pathlib import Path

from thl.algebra import Algebra, AlgebraMap, FiniteGroupAction
from thl.crossed import (
    CoinvariantComplex,
    GJOperators,
    LambdaComplex,
    conjugacy_decomposition,
    theorem_map_f,
)
from thl.sequences import DeRhamComplex, karoubi_sequence
from thl.sparse import QMatrix
from thl.twisted import HKBicomplex, TwistedOperators


ROOT = Path(__file__).parent.parent

# job -> SHA-256 of its seed-0 machine report, one "digest<TAB>job" line per
# job, in the order CI runs them; every digest a test compares is read here
PINNED_SHA256 = dict(
    line.split("\t")[::-1]
    for line in (ROOT / "tests" / "data" / "ci-report-sha256.txt").read_text().splitlines()
)


def coinvariant_complex(algebra, group, max_degree):
    """The coinvariant complex on an operator set of its own."""
    return CoinvariantComplex(GJOperators(algebra, group), max_degree)


def karoubi(algebra, group, max_degree):
    """karoubi_sequence on a coinvariant and a Connes complex sharing an
    operator set of their own."""
    ops = GJOperators(algebra, group)
    return karoubi_sequence(
        DeRhamComplex(CoinvariantComplex(ops, max_degree)),
        LambdaComplex(ops, max_degree, g_coinvariants=True),
    )


def theorem_map(algebra, group, g, max_degree):
    """theorem_map_f on a g-twisted complex and a decomposition of their own."""
    return theorem_map_f(
        HKBicomplex(TwistedOperators(algebra, group.action[g]), max_degree),
        conjugacy_decomposition(algebra, group, max_degree),
        g,
    )


def ground_field_algebra():
    return Algebra(1, ["1"], {0: 1}, [[{0: 1}]])


def dual_numbers_algebra():
    return Algebra(2, ["1", "x"], {0: 1}, [[{0: 1}, {1: 1}], [{1: 1}, {}]])


def trunc_cubic_algebra():
    return Algebra(
        3,
        ["1", "x", "x2"],
        {0: 1},
        [
            [{0: 1}, {1: 1}, {2: 1}],
            [{1: 1}, {2: 1}, {}],
            [{2: 1}, {}, {}],
        ],
    )


def triple_lines_algebra():
    """Q^3 in the basis (1, f2, f3) with f2, f3 the point idempotents."""
    return Algebra(
        3,
        ["1", "f2", "f3"],
        {0: 1},
        [
            [{0: 1}, {1: 1}, {2: 1}],
            [{1: 1}, {1: 1}, {}],
            [{2: 1}, {}, {2: 1}],
        ],
    )


def sign_twist(algebra):
    """x -> -x on the truncated polynomial algebras."""
    if algebra.dim == 2:
        return AlgebraMap(QMatrix.from_dense([[1, 0], [0, -1]]))
    return AlgebraMap(QMatrix.from_dense([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))


def shift_autom():
    """Coordinate shift of Q^3 in the (1, f2, f3) basis; order three."""
    return AlgebraMap(QMatrix.from_dense([[1, 0, 1], [0, 0, -1], [0, 1, -1]]))


def z2_group(algebra):
    return FiniteGroupAction(
        ["e", "s"], [[0, 1], [1, 0]], [AlgebraMap.identity(algebra.dim), sign_twist(algebra)]
    )


def z3_group(algebra):
    s = shift_autom()
    s2 = AlgebraMap(s.matrix @ s.matrix)
    return FiniteGroupAction(
        ["e", "s", "s2"],
        [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        [AlgebraMap.identity(3), s, s2],
    )


def s3_group(algebra):
    """Coordinate permutations of Q^3 in the (1, f2, f3) basis."""
    from thl.config import load_fixture

    cfg = load_fixture("triple-lines-s3")
    return cfg.group
