#!/usr/bin/env python3
"""Runs the benchmark over several seeds and saves one result file per run,
then reports each metric's median and spread (compare.py on the new set).

    python3 perfbench/sweep.py --out .bench_build/results/base --seeds 1-10
    python3 perfbench/sweep.py --out .bench_build/results/heldout --seeds 101-110 \
        --workloads serve-icu-f32 --trace 1

Files land in OUT/<workload>/seed<N>-trace<T>.txt. Runs are sequential.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        out_dir = Path(args.out) / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}", file=sys.stderr)
                return 1
            (out_dir / f"seed{seed}-trace{args.trace}.txt").write_text(res.stdout)
            print(f"{workload} seed {seed}: {res.stdout.splitlines()[-1][:120]}...",
                  file=sys.stderr)
    return compare.main(["compare.py", args.out])


if __name__ == "__main__":
    sys.exit(main())
