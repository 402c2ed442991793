"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints one pass/fail line.  Two sub-assertions are marked as
strict expected failures because the computation itself proves them
unattainable:

* criterion 4's dimension count: the crossed-product theory equals the
  direct sum of the conjugacy stalks, but the stalks over different
  elements have different homology, so it is not r identical copies of the
  twisted theory.  On the shift fixture the twisted theory vanishes
  entirely while the crossed product has the homology of a matrix algebra,
  already in degree 0.
* criterion 9's middle exactness at n = 2 on the sign-twist fixture: the
  kernel of the degree-raising map contains the periodicity class of the
  semisimple part of the crossed product, while the de Rham modules above
  degree zero are too small to map onto it; both dimensions are forced by
  the modules, independent of how the maps are realized.

The attainable halves of both criteria are asserted separately and pass.
"""

import hashlib
import re
import time

import pytest

from thl.algebra import AlgebraMap, crossed_product, trivial_group
from thl.cli import main, run
from thl.config import load_fixture
from thl.crossed import (
    GJOperators,
    conjugacy_decomposition,
    connes_lambda_complex,
    identity_suite,
    proposition_bicomplex,
    coinvariant_bicomplex,
)
from thl.report import emit_machine
from thl.sequences import sbi_sequence
from thl.twisted import HKBicomplex, TwistedOperators, connes_complex, twisted_cyclic

from fixtures_for_tests import PINNED_SHA256, ROOT, coinvariant_complex, karoubi, theorem_map


def _fx(name):
    return load_fixture(name)


def _announce(num, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict}: {text}")


def test_criterion_01_operator_identity_suite():
    t0 = time.monotonic()
    results = {}
    for name in ("trunc-poly-z2", "triple-lines-z3"):
        cfg = _fx(name)
        suite = identity_suite(GJOperators(cfg.algebra, cfg.group), 4)
        results[name] = suite
    elapsed = time.monotonic() - t0
    ok = all(flag for suite in results.values() for _, flag, _ in suite)
    _announce(1, ok and elapsed <= 60.0,
              f"operator identities exact for p+q<=4 on both fixtures ({elapsed:.1f}s)")
    for name, suite in results.items():
        for ident, flag, detail in suite:
            assert flag, f"{ident} failed on {name}: {detail}"
    assert elapsed <= 60.0


def test_criterion_02_ground_field_three_pipelines():
    cfg = _fx("ground-field")
    expected = [1, 0, 1, 0]
    hk = twisted_cyclic(cfg.algebra, AlgebraMap.identity(1), 3).dims
    prop = proposition_bicomplex(cfg.algebra, cfg.group, 3)
    lam = connes_lambda_complex(cfg.algebra, cfg.group, 3).dims
    ok = hk == prop.dims == lam == expected
    _announce(2, ok, f"HC(Q) = {expected} via twisted, quotient, Connes pipelines")
    assert hk == expected
    assert prop.dims == expected
    assert lam == expected


def test_criterion_03_proposition_check():
    t0 = time.monotonic()
    for name in ("trunc-poly-z2", "triple-lines-z3"):
        cfg = _fx(name)
        prop = proposition_bicomplex(cfg.algebra, cfg.group, 3)
        coinv = coinvariant_bicomplex(cfg.algebra, cfg.group, 3)
        ag = crossed_product(cfg.algebra, cfg.group)
        oracle = twisted_cyclic(ag, AlgebraMap.identity(ag.dim), 3)
        assert prop.dims == coinv.dims == oracle.dims, name
    elapsed = time.monotonic() - t0
    _announce(3, elapsed <= 300.0,
              f"quotient = coinvariant = crossed-product dims, both fixtures ({elapsed:.1f}s)")
    assert elapsed <= 300.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the crossed-product homology is the sum of conjugacy stalks with "
        "genuinely different dims per stalk; already in degree 0 the shift "
        "fixture gives coinvariant dims (1,0,1,0) against 3 x (0,0,0,0)"
    ),
)
def test_criterion_04_theorem_dimension_count():
    for name, r in (("trunc-poly-z2", 2), ("triple-lines-z3", 3)):
        cfg = _fx(name)
        gen = cfg.twist_index()
        coinv = coinvariant_bicomplex(cfg.algebra, cfg.group, 3)
        tw = twisted_cyclic(cfg.algebra, cfg.group.action[gen], 3)
        expected = [r * d for d in tw.dims]
        ok = coinv.dims == expected
        _announce(4, ok, f"{name}: coinv {coinv.dims} vs r*twisted {expected}")
        assert ok, f"{name}: {coinv.dims} != {expected}"


def test_criterion_04_map_certificates():
    """The attainable half of the comparison-map criterion: injectivity
    with image exactly the distinguished stalk summand."""
    for name in ("trunc-poly-z2", "triple-lines-z3"):
        cfg = _fx(name)
        rep = theorem_map(cfg.algebra, cfg.group, cfg.twist_index(), 3)
        assert all(d["injective"] for d in rep), name
        assert all(d["onto_summand"] for d in rep), name
    _announce(4, True, "comparison map injective onto its stalk summand (both fixtures)")


def test_criterion_05_power_comparison():
    cfg = _fx("triple-lines-z3")
    g = cfg.group
    s = g.index_of("s")
    s2 = g.index_of("s2")
    a = twisted_cyclic(cfg.algebra, g.action[s], 3).dims
    b = twisted_cyclic(cfg.algebra, g.action[s2], 3).dims
    ok = a == b
    _announce(5, ok, f"twisted dims agree for both generators: {a}")
    assert ok


def test_criterion_06_connes_equals_total():
    """The homology of the (b, B) total complex equals that of the Connes
    complex C/(1 - t), a quotient ranked on its own."""
    # ground field, trivial twist
    cfg1 = _fx("ground-field")
    ops1 = TwistedOperators(cfg1.algebra, AlgebraMap.identity(1))
    pairs = [(connes_complex(ops1, 4).column_homology(),
              HKBicomplex(ops1, 4).mixed.total_homology())]
    # sign twist fixture: both the twisted pair and the crossed pair
    cfg2 = _fx("trunc-poly-z2")
    ops2 = TwistedOperators(cfg2.algebra, cfg2.group.action[cfg2.twist_index()])
    pairs.append((connes_complex(ops2, 4).column_homology(),
                  HKBicomplex(ops2, 4).mixed.total_homology()))
    prop = proposition_bicomplex(cfg2.algebra, cfg2.group, 4)
    pairs.append((connes_lambda_complex(cfg2.algebra, cfg2.group, 4), prop))
    ok = all(c.dims == t.dims for c, t in pairs)
    _announce(6, ok, "Connes-complex dims equal total-complex dims through degree 4")
    assert [c.dims for c, _ in pairs] == [t.dims for _, t in pairs]


def test_criterion_07_shapiro_decomposition():
    cfg = _fx("triple-lines-s3")
    deco = conjugacy_decomposition(cfg.algebra, cfg.group, 2)
    stalks = [st.total_homology().dims for st in deco.stalks]
    coinv = deco.coinv.mixed.total_homology().dims
    sums = [sum(col) for col in zip(*stalks)]
    ok = len(stalks) == 3 and sums == coinv
    _announce(7, ok, f"three stalks sum {sums} = coinvariant dims {coinv}")
    assert len(stalks) == 3
    assert sums == coinv


def test_criterion_08_sbi_exactness():
    for name in ("ground-field", "trunc-poly-z2"):
        cfg = _fx(name)
        rep = sbi_sequence(coinvariant_complex(cfg.algebra, cfg.group, 3))
        assert all(n.composite_zero for n in rep), name
        assert all(n.exact for n in rep), name
    _announce(8, True, "periodicity sequence exact at every computable node, both fixtures")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "middle exactness at n = 2 on the sign-twist fixture needs the "
        "periodicity class of the Q x Q part of the crossed product in the "
        "image of the de Rham term, whose modules above degree zero are "
        "zero-dimensional there; left injectivity and composite-zero hold"
    ),
)
def test_criterion_09_karoubi_as_stated():
    for name in ("ground-field", "trunc-poly-z2"):
        cfg = _fx(name)
        rep = karoubi(cfg.algebra, cfg.group, 3)
        for node in rep:
            if node.degree > 2:
                continue
            ok = node.left_injective and node.composite_zero and node.middle_exact
            _announce(9, ok, f"{name} n={node.degree}: "
                             f"inj={node.left_injective} comp0={node.composite_zero} "
                             f"mid={node.middle_exact}")
            assert ok, f"{name} degree {node.degree}"


def test_criterion_09_attainable_nodes():
    """Everything except the single forced mismatch holds exactly."""
    cfg = _fx("ground-field")
    rep = karoubi(cfg.algebra, cfg.group, 3)
    assert all(n.ok for n in rep if n.degree <= 2)
    cfg = _fx("trunc-poly-z2")
    rep = karoubi(cfg.algebra, cfg.group, 3)
    for node in rep:
        if node.degree > 2:
            continue
        assert node.left_injective
        assert node.composite_zero
        if node.degree < 2:
            assert node.middle_exact
    _announce(9, True, "left injectivity and composite-zero at n<=2; middle exact at n<=1")


# SHA-256 of the machine report of `all` on each fixture, from the pinned
# table.  Any change to a reported basis, dimension or value changes a
# digest; a change that is meant to alter the report must update it.
GOLDEN_MACHINE_SHA256 = {
    name: PINNED_SHA256[f"all --fixture {name}"]
    for name in ("ground-field", "trunc-poly-z2", "triple-lines-z3", "triple-lines-s3",
                 "trunc-cubic-z2")
}


def test_criterion_10_determinism():
    for name, digest in GOLDEN_MACHINE_SHA256.items():
        first = emit_machine(run("all", load_fixture(name)))
        second = emit_machine(run("all", load_fixture(name)))
        assert first == second, name
        assert hashlib.sha256(first.encode()).hexdigest() == digest, name
    _announce(10, True, "byte-identical machine reports across two runs of all, every fixture")


# the largest job (S3 at degree 4, about 9 s and 400 MB in-process) is
# left to CI
IN_PROCESS_JOBS = [
    job for job in PINNED_SHA256 if job != "hc-crossed --fixture triple-lines-s3 --max-degree 4"
]


@pytest.mark.parametrize("job", IN_PROCESS_JOBS)
def test_pinned_job_report_digest(job, capsys):
    """Each pinned job, run in-process through ``cli.main`` (a --config
    path taken from the repository root), prints the report whose
    SHA-256 is pinned for it."""
    argv = job.split()
    if "--config" in argv:
        k = argv.index("--config") + 1
        argv[k] = str(ROOT / argv[k])
    assert main([*argv, "--format", "machine"]) in (0, 1)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[job]


def test_ci_jobs_are_the_pinned_jobs():
    """The jobs of the CI `cmp` loop are the job column of the pinned
    digests, in order, each job once: a job added to one list and not the
    other fails here, not only in CI."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    loop = re.search(r"for job in (.*?); do", workflow, re.S).group(1)
    jobs = re.findall(r'"([^"]*)"', loop)
    lines = (ROOT / "tests" / "data" / "ci-report-sha256.txt").read_text().splitlines()
    pinned = [line.split("\t")[1] for line in lines]
    assert jobs == pinned and len(set(jobs)) == len(jobs)
