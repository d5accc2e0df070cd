"""Compare benchmark result sets, one row per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR          # one set: spreads only

A directory holds the result files that run.py writes to
``perfbench/out/results/``.  For each side a row gives the median and the
quartiles (``statistics.quantiles(n=4)``) over its runs.  The verdict uses
the metric's bound from BENCHMARK.json:

* ``unresolved``: a side's spread (quartile distance over median) is wider
  than the bound, unless every change run beats every parent run;
* ``worse``: the change median is worse than the parent median by more
  than the bound;
* ``better``: the change median is better by more than the parent's
  quartile distance, and, when runs pair up by seed, the change wins at
  least nine tenths of the pairs (ties count for neither side);
* ``same``: none of these.

Per-layer metrics have no bound; their rows carry no verdict.  Runs pair up
by (workload, seed, trace); run parent and change alternately, switching
which goes first, so that a pair shares the machine's state.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): {seed: result}} from a directory of results."""
    runs = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fp:
            r = json.load(fp)
        runs[(r["workload"], r["trace"])][r["seed"]] = r
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(spec, parent, change):
    """Verdict and paired-win fraction (None without pairs)."""
    sign = 1 if spec["better"] == "lower" else -1
    seeds = sorted(set(parent) & set(change))
    wins = losses = 0
    for s in seeds:
        diff = sign * (change[s] - parent[s])
        wins += diff < 0
        losses += diff > 0
    decided = wins + losses
    frac = wins / decided if decided else None
    bound = spec.get("bound")
    if bound is None:
        return "", frac
    p, c = list(parent.values()), list(change.values())
    p_med, p_q1, p_q3 = summary(p)
    c_med = statistics.median(c)
    rel = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (x - y) < 0 for x in c for y in p)
    if max(spread(p), spread(c)) > bound and not all_better:
        return "unresolved", frac
    if rel > bound:
        return "worse", frac
    if (-rel * abs(p_med) > p_q3 - p_q1 and rel < 0
            and (frac is None or frac >= 0.9)):
        return "better", frac
    return "same", frac


def values_of(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()
            if metric in r["metrics"]}


def fmt(values):
    med, q1, q3 = summary(list(values))
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [load(d) for d in argv]
    keys = sorted(set(sides[0]).intersection(*sides[1:]))
    if not keys:
        sys.exit("no workload has results on every side")
    if len(sides) == 1:
        print(f"{'workload':<14} {'metric':<28} {'runs':>4} "
              f"{'median [q1, q3]':>34} {'spread':>7} {'bound':>6}")
    else:
        print(f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'delta':>7} {'wins':>5}"
              f"  verdict")
    for key in keys:
        workload, _trace = key
        for metric, spec in specs.items():
            vals = [values_of(side[key], metric) for side in sides]
            if not all(vals):
                continue
            if len(sides) == 1:
                v = list(vals[0].values())
                bound = spec.get("bound")
                print(f"{workload:<14} {metric:<28} {len(v):>4} {fmt(v):>34} "
                      f"{spread(v):7.3f} "
                      f"{'' if bound is None else f'{bound:6.2f}'}")
                continue
            parent, change = vals
            p_med = statistics.median(parent.values())
            c_med = statistics.median(change.values())
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            word, frac = verdict(spec, parent, change)
            print(f"{workload:<14} {metric:<28} {fmt(parent.values()):>34} "
                  f"{fmt(change.values()):>34} {delta:+7.1%} "
                  f"{'' if frac is None else f'{frac:5.2f}':>5}  {word}")
        for name, side in zip(("parent", "change")[:len(sides)], sides):
            runs = side[key].values()
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload:<14} {'error_rate (' + name + ')':<28} "
                  f"{failed} of {attempted} operations failed")


if __name__ == "__main__":
    main(sys.argv[1:])
