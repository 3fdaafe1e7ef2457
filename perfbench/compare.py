#!/usr/bin/env python3
"""Compare two sets of saved perfbench output.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs, concatenated:
every run prints a line naming the run (workload, seed, seconds, trace and
host fingerprint) followed by its result line. Runs whose fingerprints
(core count, CPU model, kernel, build profile) differ are not comparable:
the script then says so and exits with code 3, reporting neither pass nor
fail. Otherwise it prints, per workload and metric, the median of each
side and the relative change; judging the change against a bound is left
to whoever owns the bounds.
"""

import json
import statistics
import sys


def load(path):
    """The (run, result) pairs in one file of saved output."""
    runs, run = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "fingerprint" in obj:
                run = obj
            elif "metrics" in obj and run is not None:
                runs.append((run, obj))
                run = None
    return runs


def by_metric(runs):
    out = {}
    for run, result in runs:
        for name, m in result["metrics"].items():
            out.setdefault((run["workload"], run["trace"], name), []).append(m["value"])
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    prints = {json.dumps(run["fingerprint"], sort_keys=True) for run, _ in base + new}
    if len(prints) != 1:
        print("incomparable: the runs come from different host fingerprints")
        for p in sorted(prints):
            print("  " + p)
        return 3
    b, n = by_metric(base), by_metric(new)
    print(f"{'workload':16} {'trace':5} {'metric':32} {'base':>14} {'new':>14} {'change':>8}")
    for key in sorted(b.keys() & n.keys()):
        workload, trace, name = key
        bm, nm = statistics.median(b[key]), statistics.median(n[key])
        change = f"{(nm - bm) / bm:+.1%}" if bm else "n/a"
        print(f"{workload:16} {trace:5} {name:32} {bm:14.6g} {nm:14.6g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
