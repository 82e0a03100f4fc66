/**
 * @file
 * Shared helpers for the benchmark binaries: table formatting,
 * paper-vs-measured comparison rows, and machine-readable JSON output.
 *
 * Note on methodology: these harnesses report *simulated* time and
 * throughput from the discrete-event model, not host wall-clock time —
 * which is why they print tables directly instead of wrapping runs in
 * google-benchmark's timing loop (that would measure the simulator,
 * not the system under study). A google-benchmark microbenchmark of
 * the simulation kernel itself lives in sim_microbench.cc.
 *
 * Every harness calls initHarness(argc, argv) first. With
 * `--json <path>` the comparison rows recorded via compareRow()/
 * jsonRow() are additionally written to <path> as a JSON array of
 * {bench, metric, paper, measured} objects, so successive PRs can
 * track the perf trajectory mechanically (BENCH_*.json files).
 */

#ifndef CG_BENCH_COMMON_HH
#define CG_BENCH_COMMON_HH

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "workloads/testbed.hh"

namespace cg::bench {

/** One paper-vs-measured data point, for the JSON report. */
struct JsonRow {
    std::string metric;
    double paper;
    double measured;
};

namespace detail {

inline std::string json_path;   // empty: no JSON output
inline std::string bench_name;  // argv[0] basename
inline std::vector<JsonRow> json_rows;
inline bool quick_requested = false;
inline cg::workloads::RunOptions run_options; // see runOptions()
inline bool write_failed = false; // a --stats/--trace write failed

/** Minimal JSON string escaping (quotes and backslashes). */
inline std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** Write the --json report; @return false if it could not be. */
inline bool
writeJsonReport()
{
    if (json_path.empty())
        return true;
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f) {
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < json_rows.size(); ++i) {
            const JsonRow& r = json_rows[i];
            std::fprintf(f,
                         "  {\"bench\": \"%s\", \"metric\": \"%s\", "
                         "\"paper\": %.6g, \"measured\": %.6g}%s\n",
                         jsonEscape(bench_name).c_str(),
                         jsonEscape(r.metric).c_str(), r.paper,
                         r.measured, i + 1 < json_rows.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        // A full disk shows as a stream error or in fclose's flush.
        const bool written = !std::ferror(f);
        if (std::fclose(f) == 0 && written)
            return true;
    }
    std::fprintf(stderr, "cannot write JSON report to '%s'\n",
                 json_path.c_str());
    return false;
}

/**
 * At exit: write the JSON report and fail the run if it or a
 * --stats/--trace file could not be written. An atexit handler can
 * only change the status with _Exit, which skips exit()'s flush.
 */
inline void
finishRun()
{
    if (writeJsonReport() && !write_failed)
        return;
    std::fflush(nullptr);
    std::_Exit(1);
}

} // namespace detail

/**
 * Print the usage line and exit 2. @p own_flags lists the bench's own
 * flags ahead of the common ones ("" for none); a non-empty @p why is
 * printed first.
 */
[[noreturn]] inline void
usage(const char* argv0, const char* own_flags = "",
      const std::string& why = "")
{
    if (!why.empty())
        std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
    std::fprintf(stderr,
                 "usage: %s %s[--json <path>] [--stats <path>] "
                 "[--trace <path>] [--faults <plan>] "
                 "[--fault-seed <n>] [--check] "
                 "[--check-abort] [--quick]\n",
                 argv0, own_flags);
    std::exit(2);
}

/**
 * The value of numeric flag @p flag: all of @p text as an unsigned
 * integer (strtoull base 0, so "0x" selects hex). Empty, signed,
 * non-numeric, out-of-range or junk-trailed text exits 2 via usage().
 */
inline std::uint64_t
unsignedFlag(const char* argv0, const char* own_flags, const char* flag,
             const char* text)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(*text)) || errno != 0 ||
        *end != '\0') {
        usage(argv0, own_flags,
              std::string(flag) + ": bad value '" + text + "'");
    }
    return v;
}

/**
 * Parse common harness flags and register the output check to run at
 * exit. Call first in main().
 *
 *   --json <path>    write the compareRow()/jsonRow() points as JSON
 *   --stats <path>   dump the stats registry of the observed run (the
 *                    first Testbed the bench configures; sweep point 0
 *                    in a sweep) (".json" suffix selects JSON)
 *   --trace <path>   record that run's tracepoints and write them as
 *                    Chrome trace_event JSON (chrome://tracing)
 *   --faults <plan>  arm the fault plan (FaultPlan::parse grammar) in
 *                    every Testbed the run constructs
 *   --fault-seed <n> seed for the plan's probabilistic triggers
 *                    (default 1; mixed with each Testbed's sim seed)
 *   --check          arm the isolation checker (check::IsolationChecker)
 *                    in every Testbed; leak edges land in the stats
 *                    dump ("check.leakEdges.*") and the trace
 *   --check-abort    as --check, but abort on the first leak edge
 *   --quick          shrink the run for smoke tests (harnesses that
 *                    support it check bench::quick() and cut sweep
 *                    points / durations; others ignore it)
 *
 * A malformed or empty plan and a non-numeric seed exit 2 with the
 * usage line. A --json, --stats or --trace file that cannot be written
 * fails the run (exit 1).
 */
inline void
initHarness(int argc, char** argv)
{
    const char* slash = std::strrchr(argv[0], '/');
    detail::bench_name = slash ? slash + 1 : argv[0];
    cg::workloads::RunOptions& run = detail::run_options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            detail::json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--stats") == 0 &&
                   i + 1 < argc) {
            run.statsPath = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            run.tracePath = argv[++i];
        } else if (std::strcmp(argv[i], "--faults") == 0 &&
                   i + 1 < argc) {
            const std::string plan = argv[++i];
            if (plan == "help" || plan == "list") {
                std::printf("fault sites (plan grammar: "
                            "\"<site>[:key=val]...;...\" with keys "
                            "nth=, p=, from=, until=, max=, param=):\n"
                            "%s",
                            cg::sim::faultSiteListText().c_str());
                std::exit(0);
            }
            try {
                run.faults = cg::sim::FaultPlan::parse(plan);
            } catch (const cg::sim::FatalError& e) {
                usage(argv[0], "", e.what());
            }
            if (run.faults.empty())
                usage(argv[0], "", "--faults: the plan declares no fault");
        } else if (std::strcmp(argv[i], "--fault-seed") == 0 &&
                   i + 1 < argc) {
            run.faultSeed = unsignedFlag(argv[0], "", argv[i], argv[i + 1]);
            ++i;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            run.check = true;
        } else if (std::strcmp(argv[i], "--check-abort") == 0) {
            run.check = true;
            run.abortOnLeak = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            detail::quick_requested = true;
        } else {
            usage(argv[0]);
        }
    }
    run.writeFailed = &detail::write_failed;
    std::atexit(detail::finishRun);
}

/**
 * The run options for one Testbed::Config, as initHarness() parsed
 * them. Every call carries the fault plan and the checker request;
 * only the first carries the --stats/--trace paths, so exactly one
 * testbed is observed. Sweeps call this once per point, in index
 * order, before fanning out, so the observed run is sweep point 0 at
 * any CG_THREADS.
 */
inline cg::workloads::RunOptions
runOptions()
{
    cg::workloads::RunOptions r = detail::run_options;
    detail::run_options.statsPath.clear();
    detail::run_options.tracePath.clear();
    return r;
}

/** Was --quick passed? Harnesses shrink sweeps/durations when set. */
inline bool
quick()
{
    return detail::quick_requested;
}

/** Record a data point for the JSON report only (no table output). */
inline void
jsonRow(const std::string& metric, double paper, double measured)
{
    detail::json_rows.push_back(JsonRow{metric, paper, measured});
}

inline void
banner(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================"
                "============================\n");
}

inline void
note(const std::string& text)
{
    std::printf("note: %s\n", text.c_str());
}

/** "paper X, measured Y" comparison row; also recorded for --json. */
inline void
compareRow(const std::string& what, double paper, double measured,
           const std::string& unit)
{
    const double ratio = paper != 0.0 ? measured / paper : 0.0;
    std::printf("  %-44s paper %10.2f %-6s measured %10.2f %-6s "
                "(x%.2f)\n",
                what.c_str(), paper, unit.c_str(), measured,
                unit.c_str(), ratio);
    jsonRow(what, paper, measured);
}

inline void
sectionEnd()
{
    std::printf("\n");
}

} // namespace cg::bench

#endif // CG_BENCH_COMMON_HH
