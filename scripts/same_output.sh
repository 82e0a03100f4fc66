#!/usr/bin/env bash
# Check that the working tree prints exactly what <rev> prints.
#
#   scripts/same_output.sh <rev> [<out-dir>]
#
# Builds <rev> in a temporary git worktree and the working tree, both
# Release, under <out-dir> (default: build-same-output/), then runs,
# on both builds:
#   - each of the 16 bench binaries at CG_THREADS=1 and at the default
#     thread count, with --check armed and disarmed, keeping stdout,
#     stderr, the exit code and the --json report;
#   - each bench once more at CG_THREADS=1 with --stats and --trace,
#     keeping both files;
#   - the four examples, keeping stdout, stderr and the exit code.
# Exits 0 when every kept file is byte-identical, 1 after listing each
# file that differs or exists on one side only, and 2 on a usage or
# build error. The two sides run at once, each from its own output
# directory so that no path differs; expect 10 to 15 minutes on four
# cores. Not a ci.sh stage, since it needs a second build.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/same_output.sh <rev> [<out-dir>]" >&2
    exit 2
fi
REV=$(git rev-parse --verify "$1^{commit}") || {
    echo "same_output: unknown revision '$1'" >&2
    exit 2
}
mkdir -p "${2:-build-same-output}"
OUT=$(cd "${2:-build-same-output}" && pwd)

BENCHES="table2_rmm_call_latency table3_vipi_latency table4_exit_counts
table5_redis fig3_vuln_timeline fig6_coremark_scaling fig7_multi_vm
fig8_netpipe fig9_iozone fig10_kernel_build sec_leakage_matrix
ext_rebind ext_direct_injection ext_tdx_pagetables ext_fault_recovery
ext_soak_churn"
EXAMPLES="quickstart attack_lab cloud_node io_paths"
JOBS=$(nproc)

WORKTREE="$OUT/src-rev"
cleanup() {
    git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
    git worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$WORKTREE" "$OUT/out-rev" "$OUT/out-work"
git worktree add --detach "$WORKTREE" "$REV" >/dev/null

# build <source> <build-dir>: configure Release, build what runs below.
build() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
    # shellcheck disable=SC2086
    cmake --build "$2" -j "$JOBS" --target $BENCHES $EXAMPLES >/dev/null
}

# one <binary> <name> <threads: 1|default> <args...>: run one binary
# in the current directory, keeping stdout, stderr and the exit code.
one() {
    local bin=$1 name=$2 threads=$3
    shift 3
    local rc=0
    if [ "$threads" = 1 ]; then
        CG_THREADS=1 "$bin" "$@" >"$name.out" 2>"$name.err" || rc=$?
    else
        env -u CG_THREADS "$bin" "$@" >"$name.out" 2>"$name.err" || rc=$?
    fi
    echo "$rc" >"$name.rc"
}

# suite <build-dir> <out-dir>: every run listed in the header.
suite() (
    local build=$1 b e threads check name
    mkdir -p "$2"
    cd "$2"
    for b in $BENCHES; do
        for threads in 1 default; do
            for check in off on; do
                name="$b.threads-$threads.check-$check"
                if [ "$check" = on ]; then
                    one "$build/bench/$b" "$name" "$threads" \
                        --json "$name.json" --check
                else
                    one "$build/bench/$b" "$name" "$threads" \
                        --json "$name.json"
                fi
            done
        done
        one "$build/bench/$b" "$b.observed" 1 \
            --stats "$b.stats" --trace "$b.trace"
    done
    for e in $EXAMPLES; do
        one "$build/examples/$e" "example.$e" default
    done
)

echo "==> building $REV and the working tree (Release)"
build "$WORKTREE" "$OUT/build-rev" || exit 2
build . "$OUT/build-work" || exit 2

echo "==> running both builds"
suite "$OUT/build-rev" "$OUT/out-rev" &
rev_suite=$!
suite "$OUT/build-work" "$OUT/out-work"
wait "$rev_suite"

differing=$(diff -rq "$OUT/out-rev" "$OUT/out-work" || true)
total=$(find "$OUT/out-work" -type f | wc -l)
if [ -n "$differing" ]; then
    echo "$differing"
    echo "same_output: $(echo "$differing" | wc -l) of $total files differ"
    exit 1
fi
echo "same_output: all $total files identical to $REV"
