"""Summarize one set of benchmark runs, or compare two.

  python3 benchmark/compare.py SET.jsonl            medians and spreads
  python3 benchmark/compare.py BASE.jsonl NEW.jsonl  plus NEW against BASE

A set is a file holding the output of run.py runs (their record lines are
read; other lines are skipped).  For each workload and metric it prints the
sample count, the median and the spread: the distance between the first
and third quartiles as a share of the median.  With two sets it also
prints NEW's median as a share of BASE's and marks an end-to-end metric
that got worse by more than its bound in BENCHMARK.json.

Two sets whose runs used different rational backends are not comparable:
the script refuses them with exit code 2.  Exit code 1 means a regression.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, trace): {metric: [values]}} and the set of backends."""
    series = defaultdict(lambda: defaultdict(list))
    backends = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"record"'):
                continue
            rec = json.loads(line)["record"]
            backends.add(rec["backend"])
            for name, m in rec["metrics"].items():
                series[(rec["workload"], rec["trace"])][name].append(m["value"])
    return series, backends


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    if len(sets) == 2 and sets[0][1] != sets[1][1]:
        print(f"compare.py: refusing to compare backends {sorted(sets[0][1])} "
              f"and {sorted(sets[1][1])}", file=sys.stderr)
        return 2
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    regressed = False
    base = sets[0][0]
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name, values in base[key].items():
            med, spr = spread(values)
            line = f"  {name:40s} n={len(values):<3d} median={med:<12.6g} spread={spr:.3f}"
            if len(sets) == 2 and sets[1][0][key].get(name):
                new = sets[1][0][key][name]
                nmed, nspr = spread(new)
                share = nmed / med if med else float("nan")
                line += f" | new n={len(new)} median={nmed:.6g} spread={nspr:.3f} ratio={share:.3f}"
                if name in bounds:
                    bound, better = bounds[name]
                    worse = share - 1 if better == "lower" else 1 - share
                    if worse > bound:
                        line += f"  REGRESSION (bound {bound})"
                        regressed = True
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
