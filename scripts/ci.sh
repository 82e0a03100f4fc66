#!/usr/bin/env bash
# The full CI gate, as run before merging a PR:
#
#   1. lint:   tools/cg-analyze (+ clang-tidy when installed) --
#              call-graph-aware world/domain taint + determinism audit
#              over src/, gated against the committed suppression
#              baseline (tools/cg-analyze-baseline.json), plus the
#              absorbed cg-lint rules: stat registration, tracepoint
#              catalog, hot-path containers, stat-handle caching,
#              include guards. Any non-baselined finding fails CI.
#   2. tier-1: configure + build the primary tree and run every test
#              (the fault-injection, chaos, open-loop and soak smokes
#              included)
#   3. replay: the churn soak smoke (short create/migrate/hotplug/
#              destroy soak, fault sites armed, checker on) run twice;
#              the two outputs and the two --stats dumps must be
#              byte-identical (the dump gates the stats registry's
#              name order and its values, not only stdout). Then a
#              1300-op soak (306 realms, where the smoke makes 3; about
#              7 s) must exit 0: its checkpoints fail on any granule
#              the monitor tracks that no live realm owns
#   4. check:  the isolation-checker gate --
#                a. fig7, fig8 and fig9 each under --check twice and
#                   once disarmed; every run must succeed and all three
#                   must print byte-identical tables (the checker is
#                   pure observation and replays deterministically).
#                   fig8 and fig9 take under a second each, since
#                   their guests power off when the workload is done
#                b. the must-fire suite: a seeded scrub-skip fault MUST
#                   produce a leak edge, proving the checker can
#                   actually fail a run (a checker that cannot fire is
#                   worse than none)
#   5. perfbench: each of the benchmark's three workloads once
#              untraced and once traced (seed 1, 1 s), plus the
#              perfbench self-test. The driver exits non-zero unless
#              its end-state checks pass: every I/O and GET answered,
#              zero leak edges, an empty planner, every core online,
#              migrationsStarted == committed + aborted, and every
#              instance bit-identical to the first. Traced instances
#              step one event at a time, where a Compute never runs
#              ahead (DESIGN.md §6 item 7), while untraced blk-sync and
#              kv-openloop run ahead, so the traced runs of those two
#              are a run()-versus-step() equivalence gate
#   6. perf:   tools/perf-gate -- build Release and compare
#              sim_microbench events/sec against the committed
#              BENCH_PR<N>.json baseline; >10% regression fails. The
#              gate skips itself (warning, exit 0) on non-Release or
#              sanitizer builds, where throughput is meaningless.
#   7. sanitize: rebuild under ASan+UBSan and run the whole suite
#   8. tsan:   rebuild under ThreadSanitizer and run the threaded
#              suites (ParallelRunner sweeps, and fig7/table4 observed
#              at CG_THREADS=4) with scripts/tsan.supp
#
# Usage: scripts/ci.sh [--skip-sanitize] [--skip-tsan] [--skip-perf]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_SANITIZE=0
SKIP_TSAN=0
SKIP_PERF=0
for arg in "$@"; do
    case "$arg" in
      --skip-sanitize) SKIP_SANITIZE=1 ;;
      --skip-tsan) SKIP_TSAN=1 ;;
      --skip-perf) SKIP_PERF=1 ;;
      *)
        echo "usage: scripts/ci.sh [--skip-sanitize] [--skip-tsan]" \
             "[--skip-perf]" >&2
        exit 2
        ;;
    esac
done

echo "==> [1/8] lint (cg-analyze + clang-tidy when available)"
scripts/lint.sh

echo "==> [2/8] tier-1 build + test"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==> [3/8] churn soak replay (two runs, diffed) + 1300-op soak"
build/bench/ext_soak_churn --quick --check \
    --stats build/soak_replay_a_stats.txt > build/soak_replay_a.txt
build/bench/ext_soak_churn --quick --check \
    --stats build/soak_replay_b_stats.txt > build/soak_replay_b.txt
diff build/soak_replay_a.txt build/soak_replay_b.txt
diff build/soak_replay_a_stats.txt build/soak_replay_b_stats.txt
build/bench/ext_soak_churn --ops 1300 --check > build/soak_1300.txt

echo "==> [4/8] isolation-checker gate"
for bench in fig7_multi_vm fig8_netpipe fig9_iozone; do
    echo "  --> --check smoke + replay determinism ($bench)"
    build/bench/$bench --check > build/check_${bench}_a.txt
    build/bench/$bench --check > build/check_${bench}_b.txt
    build/bench/$bench > build/check_${bench}_bare.txt
    diff build/check_${bench}_a.txt build/check_${bench}_b.txt
    diff build/check_${bench}_a.txt build/check_${bench}_bare.txt
done
echo "  --> must-fire: seeded scrub-skip fault raises a leak edge"
ctest --test-dir build --output-on-failure -R 'CheckMustFire'

echo "==> [5/8] perfbench end-state checks + self-test"
for workload in blk-sync kv-openloop cvm-churn; do
    python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 0
done
for workload in blk-sync kv-openloop cvm-churn; do
    python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 1
done
cmake --build .bench_build/perfbench --target perfbench_selftest
ctest --test-dir .bench_build/perfbench --output-on-failure

if [ "$SKIP_PERF" = 1 ]; then
    echo "==> [6/8] perf gate: skipped (--skip-perf)"
else
    echo "==> [6/8] perf gate (sim_microbench vs committed baseline)"
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$(nproc)"
    tools/perf-gate --build-dir build-release
fi

if [ "$SKIP_SANITIZE" = 1 ]; then
    echo "==> [7/8] sanitize: skipped (--skip-sanitize)"
else
    echo "==> [7/8] sanitize build + test"
    scripts/sanitize.sh
fi

if [ "$SKIP_TSAN" = 1 ]; then
    echo "==> [8/8] tsan: skipped (--skip-tsan)"
else
    echo "==> [8/8] tsan build + threaded suites"
    scripts/sanitize.sh --tsan -R 'Parallel|Sweep|bench_observed_run'
fi

echo "==> CI green"
