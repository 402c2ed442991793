"""One benchmark process: set up a workload, run it, print one JSON line.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``, so
each run measures a fresh interpreter.  Modes:

  worker.py WORKLOAD SEED setup            time the set-up only
  worker.py WORKLOAD SEED run SECONDS      set up, then run passes of the
                                           workload for about SECONDS
  worker.py WORKLOAD SEED trace SPANS      set up, then run one traced pass
                                           and write its spans to SPANS

A pass runs and checks every operation of the workload once.  Another pass
starts only while the time used plus the slowest pass so far fits in
SECONDS, so a run whose single pass is longer than SECONDS makes exactly one
pass.

In the setup and run modes the speed gauge (gauge.py) samples every
GAUGE_PERIOD_S seconds through set-up and the passes; each timed span is
reported raw, less the gauge's own time, and at the reference speed.
"""

import contextlib
import json
import resource
import sys
import time
import traceback

import workloads
from gauge import Gauge

GAUGE_PERIOD_S = 0.01


def _run_pass(ops, call, gauge):
    """Run and check every operation once.

    Returns the gauge readings at the start and end of the pass, and the
    outcomes.
    """
    outcomes = []
    start = gauge.read()
    for op in ops:
        op_start = gauge.read()
        try:
            result = call(op)
            outcome = None
        except Exception as exc:  # an operation that raises is a failed one
            outcome = {"op": op.label, "ok": False, "error": repr(exc),
                       "traceback": traceback.format_exc()}
        op_wall = gauge.between(op_start, gauge.read())["wall_s"]
        if outcome is None:
            dims, ok, extra = op.check(result)
            outcome = {"op": op.label, "ok": ok, "dims": dims, **extra}
        outcome["wall_s"] = op_wall
        outcomes.append(outcome)
    return start, gauge.read(), outcomes


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    gauge = Gauge(GAUGE_PERIOD_S)
    out = {}
    # The gauge runs through set-up and the timed passes; a traced pass
    # runs without it, so that its samples do not land in layer times.
    with gauge if mode != "trace" else contextlib.nullcontext():
        start = gauge.read()
        ops = workloads.setup(workload, seed)
        out["setup"] = gauge.scaled_between(start, gauge.read())
        if mode == "run":
            seconds = float(argv[3])
            passes = []
            t0 = time.perf_counter()
            while True:
                start, end, outcomes = _run_pass(ops, lambda op: op.call(), gauge)
                passes.append(dict(gauge.scaled_between(start, end), outcomes=outcomes))
                slowest = max(p["wall_s"] for p in passes)
                if time.perf_counter() - t0 + slowest > seconds:
                    break
            out["passes"] = passes
    import thl.rational

    out["backend"] = thl.rational.Q.__module__
    out["thl_file"] = thl.rational.__file__
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        start, end, outcomes = _run_pass(ops, lambda op: tracer.root(op.label, op.call), gauge)
        out["passes"] = [dict(gauge.between(start, end), outcomes=outcomes)]
        out["layers"] = tracer.summary()
        out["run_id"] = tracer.run_id
        tracer.write(argv[3])
    out["gauge_samples"] = len(gauge.wall)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
