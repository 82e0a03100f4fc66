#!/usr/bin/env bash
# Build the Release tree, run every table/figure benchmark with
# --json plus the DES-kernel microbenchmarks, and merge the reports
# into one BENCH_PR<N>.json at the repo root (a flat JSON array of
# {bench, metric, paper, measured, baseline} rows) so successive PRs
# can track the perf trajectory mechanically.
#
# Tracked alongside the 13 paper metrics:
#   - sim_microbench events/sec (one row per microbenchmark), the raw
#     DES-kernel throughput that bounds every sweep's wall-clock;
#   - every bench's wall-clock seconds (one "wall-clock sec" row per
#     bench above, sim_microbench aside, whose run time its own
#     --benchmark_min_time sets) plus a "suite" row with their sum:
#     the end-to-end number a perf regression actually costs. These
#     rows are recorded, not gated;
#   - table5_redis's open-loop serving-path sweep: p50/p99/p999 per
#     offered-load point, each mode's p999-SLO knee, and the IPU
#     backend's data-path exit count (must stay 0);
#   - ext_soak_churn's 2-sim-hour fault-armed churn soak:
#     soak.migrations, soak.rollbacks, soak.ops, soak.quarantined and
#     soak.leakEdges (which must stay 0).
#
# The previous BENCH_PR<M>.json (highest M < N in the repo root) is
# carried forward as each row's "baseline" and the per-metric deltas
# are printed, so the trajectory is visible at a glance. The committed
# file is also what scripts/ci.sh's perf stage gates against (see
# tools/perf-gate).
#
# Usage: scripts/bench_report.sh <pr-number> [build-dir]
#   e.g. scripts/bench_report.sh 6        -> BENCH_PR6.json
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <pr-number> [build-dir]" >&2
    exit 2
fi
PR="$1"
BUILD_DIR="${2:-build-release}"
OUT="BENCH_PR${PR}.json"
REPORT_DIR="$BUILD_DIR/bench-reports"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

mkdir -p "$REPORT_DIR"

BENCHES=(
    table2_rmm_call_latency
    table3_vipi_latency
    table4_exit_counts
    table5_redis
    fig6_coremark_scaling
    fig7_multi_vm
    fig8_netpipe
    fig9_iozone
    fig10_kernel_build
    ext_soak_churn
)

for bench in "${BENCHES[@]}"; do
    echo "== $bench"
    start=$(date +%s.%N)
    "$BUILD_DIR/bench/$bench" --json "$REPORT_DIR/$bench.json"
    end=$(date +%s.%N)
    echo "$start $end" > "$REPORT_DIR/$bench.wallclock.txt"
done

echo "== sim_microbench"
# Three repetitions, best rate kept per benchmark (below): single runs
# on a shared box reliably catch one benchmark or another cold, which
# would commit a soft baseline for tools/perf-gate (itself best-of-N
# on the measuring side, so best-of on both sides is symmetric).
"$BUILD_DIR/bench/sim_microbench" --benchmark_format=json \
    --benchmark_min_time=0.2 --benchmark_repetitions=3 \
    > "$REPORT_DIR/sim_microbench.json" 2> /dev/null

# Merge the paper-bench rows, the kernel-throughput rows, and the
# wall-clock rows into one array, attaching the prior report's
# measurements as each row's baseline.
python3 - "$PR" "$OUT" "$REPORT_DIR" "${BENCHES[@]}" <<'EOF'
import glob, json, re, sys

pr, out, report_dir = sys.argv[1], sys.argv[2], sys.argv[3]
benches = sys.argv[4:]

rows = []
for bench in benches:
    with open(f"{report_dir}/{bench}.json") as f:
        rows.extend(json.load(f))

with open(f"{report_dir}/sim_microbench.json") as f:
    micro = json.load(f)
best = {}
for b in micro.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    ips = b.get("items_per_second")
    if ips is None:
        continue
    name = b.get("run_name", b["name"])
    best[name] = max(best.get(name, 0.0), ips)
for name, ips in best.items():
    rows.append({"bench": "sim_microbench",
                 "metric": f"{name} events/sec",
                 "paper": 0, "measured": round(ips, 1)})

suite = 0.0
for bench in benches:
    with open(f"{report_dir}/{bench}.wallclock.txt") as f:
        start, end = map(float, f.read().split())
    suite += end - start
    rows.append({"bench": bench, "metric": "wall-clock sec",
                 "paper": 0, "measured": round(end - start, 3)})
rows.append({"bench": "suite", "metric": "wall-clock sec",
             "paper": 0, "measured": round(suite, 3)})

# Baseline: the highest-numbered earlier BENCH_PR<M>.json.
baseline, base_name = {}, None
nums = sorted(int(m.group(1))
              for p in glob.glob("BENCH_PR*.json")
              if (m := re.fullmatch(r"BENCH_PR(\d+)\.json", p))
              and int(m.group(1)) < int(pr))
if nums:
    base_name = f"BENCH_PR{nums[-1]}.json"
    with open(base_name) as f:
        for r in json.load(f):
            baseline[(r["bench"], r["metric"])] = r["measured"]

for r in rows:
    r["baseline"] = baseline.get((r["bench"], r["metric"]))

with open(out, "w") as f:
    f.write("[\n")
    f.write(",\n".join("  " + json.dumps(r) for r in rows))
    f.write("\n]\n")

print(f"wrote {out} ({len(rows)} rows)")
if base_name:
    print(f"\ndeltas vs {base_name}:")
    for r in rows:
        b = r["baseline"]
        if b is None:
            print(f"  {r['bench']}/{r['metric']:<42} "
                  f"{r['measured']:>12} (new)")
        elif b:
            pct = 100.0 * (r["measured"] - b) / b
            print(f"  {r['bench']}/{r['metric']:<42} "
                  f"{b:>12} -> {r['measured']:>12} ({pct:+.1f}%)")
EOF
