#!/usr/bin/env python3
"""The repository benchmark: builds the measurement binary from source, runs
one workload for one seed and prints its metrics.

    python3 perfbench/run.py --workload serve-ushcn-f64 --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 they are its per_layer
metrics, from a separate run that records spans around the calls into each
layer. Lines before it, each starting with '#', give the run's context
(ISA, pool threads, nproc, build type, commit, seed), the request counts
and, for a traced run, the per-span self time and coverage.

The binary is built under .bench_build/ at the repository root; the first
run configures and compiles it, later runs only check it is up to date.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

WORKLOADS = ("serve-ushcn-f64", "serve-icu-f32", "train-ushcn-interp")

# Per-layer metrics a workload does not exercise (they read 0 there). Every
# other per-layer metric must be measured, or the run is not correct.
SERVE_IDLE = {"train.forward_ms", "autograd.backward_ms", "nn.optimizer_ms", "train.eval_ms"}
IDLE = {
    "serve-ushcn-f64": SERVE_IDLE,
    "serve-icu-f32": SERVE_IDLE,
    "train-ushcn-interp": {
        "data.make_sequence_batch_ms", "data.union_points", "data.pad_fill",
        "core.batched_forward_ms", "core.encode_ms", "data.encoder_inputs_ms",
        "core.dhs_factorize_ms", "core.batch_plans_ms", "ode.steps_per_seq",
        "ode.nfe_per_seq", "ode.waves", "ode.wave_fill", "ode.backward_rows",
        "train.checkpoint_fit_s", "nn.load_params_ms", "nn.freeze_ms",
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "diffode_perfbench",
                  "-j", jobs])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                log("build failed: " + " ".join(cmd) + "\n" + "\n".join(tail))
                return None
    return BUILD / "diffode_perfbench"


def source_digest():
    """SHA-1 over the library and benchmark sources, so a result names the
    code it measured even in a checkout without git metadata."""
    h = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def end_to_end(record):
    s, v = record["samples"], record["values"]
    attempted = record["attempted"]
    return {
        "setup_s": summary.median(s["setup_s"]),
        # Timings are p90 and p99, not medians: on a shared host, contention
        # from other tenants comes and goes, and the median of a run lands on
        # whichever of the two speeds held for most of it (README.md).
        # Throughput is the rate that 90% of passes sustain.
        "throughput_seqs_per_s": v["pass_seqs"] / (summary.percentile(s["epoch_ms"], 90) * 1e-3),
        "request_p90_ms": summary.percentile(s["request_ms"], 90),
        "request_p99_ms": summary.percentile(s["request_ms"], 99),
        "epoch_p90_ms": summary.percentile(s["epoch_ms"], 90),
        "val_mse": v["val_mse"],
        "peak_rss_mb": v["peak_rss_mb"],
        "success_share": (attempted - record["failed"]) / attempted,
    }


def per_layer(record, wanted):
    """Each span metric is the median over requests of that request's summed
    span time; each counter is the median of its per-request samples.
    Returns (values, names of metrics the run did not measure)."""
    sums = summary.per_request_ns(record["span_names"], record["spans"])
    samples = record["samples"]
    out, missing = {}, []
    for name in wanted:
        base, _, unit = name.rpartition("_")
        if name in samples:
            out[name] = summary.median(samples[name])
        elif unit in ("ms", "s") and base in sums:
            scale = 1e-6 if unit == "ms" else 1e-9
            out[name] = summary.median(list(sums[base].values())) * scale
        elif name == "trace.slowdown":
            # Traced request time against the untraced requests of the run.
            out[name] = (summary.median(list(sums["request"].values())) * 1e-6
                         / summary.median(samples["request_ms"]))
        else:
            out[name] = 0.0
            missing.append(name)
    return out, missing


def print_trace(record):
    table = summary.span_table(record["span_names"], record["spans"])
    print("# span                       calls    total_ms     self_ms  coverage")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_ns"]):
        print(f"# {name:26s} {row['calls']:6d} {row['total_ns'] * 1e-6:11.2f} "
              f"{row['self_ns'] * 1e-6:11.2f} {row['coverage'] * 100:8.1f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = build()
    if exe is None:
        return 1
    workdir = BUILD / "work"
    workdir.mkdir(exist_ok=True)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--workdir={workdir}"]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    if res.returncode != 0:
        log(f"benchmark binary exited with {res.returncode}")
        return 1
    record = json.loads(res.stdout.strip().splitlines()[-1])

    meta = dict(record["meta"], workload=args.workload, seed=args.seed,
                trace=args.trace, commit=commit(), source_sha1=source_digest())
    print("# meta " + json.dumps(meta, sort_keys=True))
    attempted, failed = record["attempted"], record["failed"]
    unit_of = "epochs" if args.workload.startswith("train-") else "requests"
    print(f"# {unit_of}: sent {attempted}, succeeded {attempted - failed}, failed {failed}")

    correct = failed == 0
    if args.trace:
        metrics_spec = spec["per_layer"]
        values, missing = per_layer(record, [m["name"] for m in metrics_spec])
        unmeasured = sorted(set(missing) - IDLE[args.workload])
        if unmeasured:
            log("layers not measured: " + ", ".join(unmeasured))
            correct = False
        print_trace(record)
        print(f"# tracing overhead: traced/untraced request time = "
              f"{values['trace.slowdown']:.4f}")
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end(record)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_spec}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
