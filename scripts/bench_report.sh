#!/usr/bin/env bash
# Runs the Table V efficiency benchmark (training-throughput regression
# check), the single-sequence inference latency benchmark (the grad-on vs
# NoGradScope eval speedup), the lockstep execution-batch sweep (batched
# seqs/sec vs the per-sequence serving path recorded in BENCH_PR4.json), the
# serving-precision sweep (the same DIFFODE weights frozen at f64 vs f32,
# with the dispatched kernel ISA recorded per row), and the kernel ISA micro
# sweep (scalar / avx2 / avx512), then writes BENCH_PR6.json. "Before"
# defaults to the ms-per-epoch recorded on main after the AVX2 kernel
# backend (PR 3); point BASELINE_CSV at a saved
# `bench_table5_efficiency --csv` dump to compare against something else.
#
#   scripts/bench_report.sh                       # build, bench, report
#   BASELINE_CSV=old.csv scripts/bench_report.sh  # custom baseline
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_PR6.json}"

cmake -B build -S . > /dev/null
cmake --build build -j --target bench_table5_efficiency bench_infer_latency \
  bench_micro_substrates > /dev/null

AFTER_CSV="$(mktemp)"
INFER_CSV="$(mktemp)"
MICRO_JSON="$(mktemp)"
trap 'rm -f "$AFTER_CSV" "$INFER_CSV" "$MICRO_JSON"' EXIT
./build/bench/bench_table5_efficiency --csv > "$AFTER_CSV"
./build/bench/bench_infer_latency --csv > "$INFER_CSV"
./build/bench/bench_micro_substrates --benchmark_filter='Isa' \
  --benchmark_format=json > "$MICRO_JSON" 2>/dev/null

BASELINE_CSV="${BASELINE_CSV:-}" AFTER_CSV="$AFTER_CSV" INFER_CSV="$INFER_CSV" \
MICRO_JSON="$MICRO_JSON" OUT="$OUT" python3 - <<'EOF'
import csv, json, os

# ms/epoch measured on main (commit 51b820f) at the default bench scale,
# after the AVX2+FMA kernel backend (the BENCH_PR3.json "after" column).
# The dtype-generic substrate must not regress these by more than 2%.
DEFAULT_BEFORE = {
    "ContiFormer": 11.0,
    "HiPPO-obs": 3.8,
    "GRU-D": 12.6,
    "ODE-RNN": 13.5,
    "Latent ODE": 18.7,
    "PolyODE": 20.5,
    "DIFFODE": 64.3,
}

def load(path):
    out = {}
    with open(path) as f:
        for row in csv.reader(f):
            if len(row) >= 3 and row[0] not in ("table", "model"):
                try:
                    out[row[0]] = float(row[2])
                except ValueError:
                    pass
    return out

after = load(os.environ["AFTER_CSV"])
baseline_csv = os.environ.get("BASELINE_CSV", "")
before = load(baseline_csv) if baseline_csv else DEFAULT_BEFORE

models = []
for name, ms in after.items():
    entry = {"model": name, "after_ms_per_epoch": ms}
    if name in before:
        entry["before_ms_per_epoch"] = before[name]
        entry["speedup"] = round(before[name] / ms, 3) if ms else None
        entry["improvement_pct"] = round(100.0 * (before[name] - ms) / before[name], 1)
    models.append(entry)

# bench_infer_latency emits three `table,<name>` sections; dispatch rows on
# the section, not the column count (the latency table and the precision
# sweep are both 7 columns wide).
latency = []
batched = []
precision = []
table = ""
with open(os.environ["INFER_CSV"]) as f:
    for row in csv.reader(f):
        if not row:
            continue
        if row[0] == "table":
            table = row[1] if len(row) > 1 else ""
            continue
        if row[0] in ("model", "precision"):
            continue
        try:
            if table == "Inference latency" and len(row) >= 7:
                latency.append({
                    "model": row[0],
                    "grad_p50_ms": float(row[1]),
                    "grad_p95_ms": float(row[2]),
                    "nograd_p50_ms": float(row[3]),
                    "nograd_p95_ms": float(row[4]),
                    "nograd_seqs_per_sec": float(row[5]),
                    "nograd_speedup": float(row[6]),
                })
            elif table == "Batched execution" and len(row) >= 5:
                batched.append({
                    "model": row[0],
                    "batch": int(row[1]),
                    "seqs_per_sec": float(row[2]),
                    "request_p50_ms": float(row[3]),
                    "request_p95_ms": float(row[4]),
                })
            elif table == "Serving precision sweep" and len(row) >= 7:
                precision.append({
                    "model": row[0],
                    "precision": row[1],
                    "isa": row[2],
                    "batch": int(row[3]),
                    "seqs_per_sec": float(row[4]),
                    "request_p50_ms": float(row[5]),
                    "request_p95_ms": float(row[6]),
                })
        except ValueError:
            pass

# Per-sequence NoGradScope throughput recorded before the lockstep engine
# (BENCH_PR4.json); the batched sweep reports its speedup against these.
PER_SEQ_BEFORE = {}
if os.path.exists("BENCH_PR4.json"):
    with open("BENCH_PR4.json") as f:
        pr4 = json.load(f)
    for m in pr4.get("inference_latency", {}).get("models", []):
        PER_SEQ_BEFORE[m["model"]] = m["nograd_seqs_per_sec"]
for entry in batched:
    before_sps = PER_SEQ_BEFORE.get(entry["model"])
    if before_sps:
        entry["per_seq_before_seqs_per_sec"] = before_sps
        entry["speedup_vs_per_seq"] = round(entry["seqs_per_sec"] / before_sps, 2)

# Pair each batch size's f64/f32 cells (they ran back to back, so the ratio
# is taken within one thermal regime) into a per-batch f32 speedup column.
by_batch = {}
for entry in precision:
    by_batch.setdefault(entry["batch"], {})[entry["precision"]] = entry
precision_speedups = []
for batch in sorted(by_batch):
    cells = by_batch[batch]
    if "f64" in cells and "f32" in cells and cells["f64"]["seqs_per_sec"]:
        precision_speedups.append({
            "batch": batch,
            "isa": cells["f32"]["isa"],
            "f64_seqs_per_sec": cells["f64"]["seqs_per_sec"],
            "f32_seqs_per_sec": cells["f32"]["seqs_per_sec"],
            "f32_speedup": round(
                cells["f32"]["seqs_per_sec"] / cells["f64"]["seqs_per_sec"], 3),
        })

# Group the ISA micro sweep rows by benchmark shape; each shape gets one
# column per ISA that ran (avx512 rows are skipped on hosts without it).
ISA_NAMES = {"/isa:0": "scalar", "/isa:1": "avx2", "/isa:2": "avx512"}
with open(os.environ["MICRO_JSON"]) as f:
    micro = json.load(f)
rows = {}
for b in micro.get("benchmarks", []):
    name = b.get("name", "")
    if "/isa:" not in name or b.get("error_occurred"):
        continue
    shape, isa = name, None
    for tag, isa_name in ISA_NAMES.items():
        if tag in name:
            shape, isa = name.replace(tag, ""), isa_name
    if isa is None:
        continue
    rows.setdefault(shape, {})[isa] = b.get("real_time")
kernels = []
for shape in sorted(rows):
    r = rows[shape]
    entry = {"benchmark": shape}
    for isa in ("scalar", "avx2", "avx512"):
        if isa in r:
            entry[f"{isa}_ns"] = round(r[isa], 1)
    for isa in ("avx2", "avx512"):
        if "scalar" in r and isa in r and r[isa]:
            entry[f"{isa}_speedup"] = round(r["scalar"] / r[isa], 2)
    kernels.append(entry)

report = {
    "benchmark": "bench_table5_efficiency",
    "metric": "ms_per_epoch",
    "baseline": baseline_csv or "main@51b820f (BENCH_PR3 after)",
    "models": models,
    "inference_latency": {
        "benchmark": "bench_infer_latency",
        "metric": "single_sequence_forward_ms",
        "note": "grad-on (tape-building) vs ag::NoGradScope forward",
        "models": latency,
    },
    "batched_execution": {
        "benchmark": "bench_infer_latency (batched sweep)",
        "metric": "sustained_seqs_per_sec",
        "note": "lockstep execution batch vs the per-sequence NoGradScope "
                "path of BENCH_PR4.json; one request = one batch",
        "rows": batched,
    },
    "serving_precision": {
        "benchmark": "bench_infer_latency (serving precision sweep)",
        "metric": "sustained_seqs_per_sec",
        "note": "the same DIFFODE weights frozen at f64 vs f32 "
                "(Freeze(Precision::kF32), LockstepEngine<float>); isa "
                "is the dispatched kernel backend; each batch size's f64 and "
                "f32 cells ran back to back so their ratio shares one "
                "frequency regime",
        "rows": precision,
        "f32_speedup_by_batch": precision_speedups,
    },
    "kernel_isa_sweep": {
        "benchmark": "bench_micro_substrates --benchmark_filter=Isa",
        "metric": "real_time_ns",
        "kernels": kernels,
    },
}
with open(os.environ["OUT"], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps(report, indent=2))
EOF

echo "wrote $OUT"
