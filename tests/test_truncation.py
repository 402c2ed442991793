"""Truncation stability: a dimension reported as valid at degree N must not
change when the truncation grows, so every dims table of ``thl all`` at N
is a prefix of the same table at N + 1.

N = 1 and 2 on every fixture and on the config tests/data/half-lines-z2.json,
except N = 1 only on triple-lines-s3, whose `all` run at N = 3 costs more
than every other run here together.  hdr-G is tested apart, so that its
documented top-degree defect is marked on exactly the cases where it shows;
it is read from its own run, which is cheap, so it is also tested from
N = 3 to N = 4 on every input.
"""

import functools
import os

import pytest

from thl.cli import run
from thl.config import load_config, load_fixture
from thl.fixtures import fixture_names

HALF_LINES = os.path.join(os.path.dirname(__file__), "data", "half-lines-z2.json")

CASES = [(name, N) for name in fixture_names() for N in (1, 2)
         if (name, N) != ("triple-lines-s3", 2)] + [("half-lines-z2", N) for N in (1, 2)]

HDR_TOP_DEGREE = pytest.mark.xfail(
    strict=True,
    reason=(
        "DeRhamComplex divides its top module by im(d b) only, so hdr-G in "
        "the top degree changes when the truncation grows (ROADMAP item 1 (c))"
    ),
)


@functools.lru_cache(maxsize=None)
def _tables(name, N, command="all"):
    cfg = load_config(HALF_LINES) if name == "half-lines-z2" else load_fixture(name)
    cfg.max_degree = N
    return {theory: tuple(d for _, d in rows) for theory, rows in run(command, cfg).dim_tables}


def _unstable(name, N, theories, command="all"):
    """The tables among theories of command whose dims at N are not a
    prefix of their dims at N + 1, with both lists."""
    low, high = _tables(name, N, command), _tables(name, N + 1, command)
    assert set(low) == set(high)
    return {t: (low[t], high[t]) for t in theories if high[t][: len(low[t])] != low[t]}


@pytest.mark.parametrize("name, N", CASES)
def test_dims_are_stable_under_truncation(name, N):
    theories = [t for t in _tables(name, N) if t != "hdr-G"]
    assert {"hc-crossed", "hc-coinv", "hc-lambda", "hh-G"} <= set(theories)
    assert _unstable(name, N, theories) == {}


# at N = 3 -> 4: triple-lines-z3 [1,2,0,0] -> [1,2,0,2,0], triple-lines-s3
# [2,1,0,0] -> [2,1,0,1,0] and half-lines-z2 [1,1,0,0] -> [1,1,0,1,0]
HDR_UNSTABLE = {(name, N) for name in ("triple-lines-z3", "triple-lines-s3", "half-lines-z2")
                for N in (1, 3)}


@pytest.mark.parametrize("name, N", [
    pytest.param(name, N, marks=HDR_TOP_DEGREE) if (name, N) in HDR_UNSTABLE else (name, N)
    for name, N in CASES + [(name, 3) for name in [*fixture_names(), "half-lines-z2"]]
])
def test_hdr_G_is_stable_under_truncation(name, N):
    assert _unstable(name, N, ["hdr-G"], "hdr-G") == {}

