"""thl benchmark: run one workload and print its metrics.

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a thl checkout; the library is imported from ./src.
Workloads, metrics and bounds are declared in BENCHMARK.json, and
benchmark/README.md says why each was chosen.

Every measurement is taken in a fresh worker process (worker.py):

* --trace 0 measures the end-to-end metrics.  One worker runs passes of
  the workload for about S seconds; set-up-only workers before and after
  it give more set-up time samples.  Times are taken at the reference
  speed of the gauge (gauge.py), which takes out the host's changing
  speed, and are medians over passes and set-ups.
* --trace 1 measures the per-layer metrics: one untraced pass and one
  traced pass, each in its own worker.  The traced pass writes its spans
  to benchmark/out/<workload>.spans.jsonl.

The second-to-last line of output is a JSON record of the run (seed,
environment, every sample, the dims and ungated lines); compare.py reads
these records.  The last line is the result: correct, attempted, failed
and the metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker processes from one checkout, within one deadline."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # A fixed hash seed keeps set iteration, and so the traced counts,
        # the same from run to run.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    def worker(self, mode, *extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               self.workload, str(self.seed), mode, *map(str, extra)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker {mode} did not finish within {timeout:.0f} s")
        if proc.returncode != 0:
            raise WorkerError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        expected = os.path.join(self.root, "src", "thl")
        if os.path.dirname(out["thl_file"]) != expected:
            raise WorkerError(f"worker imported thl from {out['thl_file']}, not {expected}")
        return out


def _outcomes(out):
    return [o for p in out["passes"] for o in p["outcomes"]]


def _dims(out):
    """(op, dims) of the first pass: what traced and untraced runs must share."""
    return [(o["op"], o.get("dims")) for o in out["passes"][0]["outcomes"]]


def measure_end_to_end(runner, seconds, record):
    runner.worker("setup")   # compiles and caches bytecode; not a sample
    # Set-up samples come from before and after the passes: the machine's
    # speed drifts over tens of seconds, and a short sample sees one moment.
    setups = [runner.worker("setup")["setup"] for _ in range(SETUP_SAMPLES)]
    main = runner.worker("run", seconds)
    setups.append(main["setup"])
    setups += [runner.worker("setup")["setup"] for _ in range(SETUP_SAMPLES)]
    passes = main["passes"]
    outcomes = _outcomes(main)
    failed = sum(not o["ok"] for o in outcomes)
    record.update(backend=main["backend"], setups=setups,
                  passes=[{k: v for k, v in p.items() if k != "outcomes"} for p in passes],
                  outcomes=passes[0]["outcomes"], failures=[o for o in outcomes if not o["ok"]])
    values = {
        "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
        "setup_s": statistics.median(s["ref_wall_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "success_rate": (len(outcomes) - failed) / len(outcomes),
    }
    return values, len(outcomes), failed, True


def measure_layers(runner, record):
    plain = runner.worker("run", 0)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_path = os.path.join(HERE, "out", f"{runner.workload}.spans.jsonl")
    traced = runner.worker("trace", spans_path)
    outcomes = _outcomes(plain) + _outcomes(traced)
    failed = sum(not o["ok"] for o in outcomes)
    same_dims = _dims(plain) == _dims(traced)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["passes"][0]["wall_s"] - plain["passes"][0]["wall_s"]
    values["trace.wall_s"] = traced["passes"][0]["wall_s"]
    record.update(backend=traced["backend"], run_id=traced["run_id"], spans=spans_path,
                  untraced_wall_s=plain["passes"][0]["wall_s"], traced_dims_match=same_dims,
                  outcomes=traced["passes"][0]["outcomes"],
                  failures=[o for o in outcomes if not o["ok"]])
    return values, len(outcomes), failed, same_dims


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thl", "__init__.py")):
        print("run.py: src/thl not found; run from the root of a thl checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            values, attempted, failed, consistent = measure_layers(runner, record)
        else:
            values, attempted, failed, consistent = measure_end_to_end(runner, args.seconds, record)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
