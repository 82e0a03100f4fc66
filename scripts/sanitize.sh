#!/usr/bin/env bash
# Build and run the full test suite under a sanitizer.
#
# Usage: scripts/sanitize.sh [--tsan | sanitizers] [extra ctest args...]
#   default            AddressSanitizer + UBSan in build-sanitize/
#   --tsan             ThreadSanitizer in build-tsan/ with the curated
#                      suppressions file (scripts/tsan.supp). The only
#                      threaded code is sim::ParallelRunner fanning out
#                      independent Simulations, so this leg pins down
#                      the sweep harness.
#   <sanitizers>       any CG_SANITIZE value, e.g. "address,undefined"
#
# Each instrumented tree lives in its own build dir so it never
# disturbs the primary build/ directory. Exits non-zero on any
# sanitizer report (-fno-sanitize-recover=all) or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="address,undefined"
BUILD_DIR="build-sanitize"
if [ $# -gt 0 ]; then
    case "$1" in
      --tsan)
        SANITIZERS="thread"
        BUILD_DIR="build-tsan"
        shift
        ;;
      --*)
        echo "usage: scripts/sanitize.sh [--tsan | sanitizers]" \
             "[ctest args...]" >&2
        exit 2
        ;;
      *)
        SANITIZERS="$1"
        shift
        ;;
    esac
fi

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCG_SANITIZE="$SANITIZERS"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# detect_leaks needs ptrace; fall back gracefully inside containers.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
if [ "$SANITIZERS" = "thread" ]; then
    export TSAN_OPTIONS="${TSAN_OPTIONS:-suppressions=$(pwd)/scripts/tsan.supp history_size=7}"
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
