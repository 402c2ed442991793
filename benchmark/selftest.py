"""Self-test of the benchmark's traced counts.

  python3 benchmark/selftest.py [SEED]

Runs the traced measurement of twisted-sweep twice.  Every count metric
(calls, nnz_in, distinct_ratio, builds) must be identical between the two,
each traced pass must report the same dims as its untraced pass, and every
operation must pass its check.  Exit code 0 when all of this holds.
"""

import json
import os
import sys

import run

COUNT_UNITS = ("count", "ratio")


def main(argv):
    seed = int(argv[0]) if argv else 0
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    results = []
    for _ in range(2):
        record = {}
        values, attempted, failed, same_dims = run.measure_layers(
            run.Runner(root, "twisted-sweep", seed), record)
        if failed or not same_dims:
            print(f"selftest: {failed} of {attempted} operations failed; "
                  f"traced dims match untraced: {same_dims}")
            return 1
        results.append({name: values[name] for name in counted})
    diff = {n: (results[0][n], results[1][n]) for n in counted if results[0][n] != results[1][n]}
    if diff:
        print(f"selftest: counts differ between two traced runs: {diff}")
        return 1
    print(f"selftest: ok; {len(counted)} count metrics identical, traced dims match untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
