#!/usr/bin/env python3
"""Reads benchmark result sets and reports each metric's median and spread
per workload; with two sets, flags the changes outside the benchmark's bound.

    python3 perfbench/compare.py RESULTS              # one set: steadiness
    python3 perfbench/compare.py BASE NEW             # two sets: changes

A result set is a directory of run.py outputs, one file per run (sweep.py
writes them). Each metric's spread is the distance between its first and
third quartiles across the set's runs, as a share of the median.

With one set, a metric is marked 'unsteady' when its spread exceeds its
bound and 'noisy' when it exceeds a third of it. With two, the change of the
median is taken in the metric's worse direction; it is a 'regression' when
worse by more than the bound and 'improved' when better by more than it,
but 'unresolved' whenever either set spreads wider than the bound. Metrics
without a bound (per-layer ones) are reported, never flagged.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(path):
    """{(workload, trace): {metric: [values across runs]}}."""
    runs = defaultdict(lambda: defaultdict(list))
    for f in sorted(Path(path).rglob("*.txt")):
        lines = f.read_text().splitlines()
        meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), None)
        if meta is None or not lines:
            print(f"skipping {f}: not a run.py output", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        key = (meta["workload"], meta["trace"])
        for name, m in result["metrics"].items():
            runs[key][name].append(m["value"])
    return runs


def report_one(runs, spec):
    worst = 0
    for (workload, trace), metrics in sorted(runs.items()):
        print(f"{workload} trace={trace}")
        for name, values in metrics.items():
            bound = spec.get(name, {}).get("bound")
            sp = summary.spread(values)
            flag = ""
            if bound is not None and name != "setup_s":
                if sp > bound:
                    flag, worst = "unsteady", max(worst, 2)
                elif sp > bound / 3:
                    flag, worst = "noisy", max(worst, 1)
            print(f"  {name:30s} n={len(values):2d} median={summary.median(values):12.6g} "
                  f"spread={sp * 100:6.2f}% bound={'-' if bound is None else f'{bound * 100:.0f}%':>4s} {flag}")
    return worst


def report_two(base, new, spec):
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} trace={trace}")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            mb, mn = summary.median(b), summary.median(n)
            m = spec.get(name, {})
            bound = m.get("bound")
            sign = 1.0 if m.get("better") == "lower" else -1.0
            worse = sign * (mn - mb) / abs(mb) if mb else 0.0
            verdict = ""
            if bound is not None:
                if max(summary.spread(b), summary.spread(n)) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict, regressions = "REGRESSION", regressions + 1
                elif -worse > bound:
                    verdict = "improved"
            print(f"  {name:30s} base={mb:12.6g} ({summary.spread(b) * 100:5.1f}%) "
                  f"new={mn:12.6g} ({summary.spread(n) * 100:5.1f}%) "
                  f"worse={worse * 100:+7.2f}% {verdict}")
    return regressions


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(argv) == 2:
        return 1 if report_one(load_set(argv[1]), spec) == 2 else 0
    return 1 if report_two(load_set(argv[1]), load_set(argv[2]), spec) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
