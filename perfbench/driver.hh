/**
 * @file
 * The perfbench driver: one process, one thread, three workloads built
 * only from the simulator's public headers (see BENCHMARK.json for why
 * each workload was chosen and which layers it stresses).
 *
 * Every workload runs in one of two ways:
 *
 *  - timed: tracing off; a fixed horizon is reached with
 *    Testbed::run(), exactly as the paper benches do. End-to-end
 *    metrics come from here.
 *  - traced: the same simulation advanced one EventQueue::step() at a
 *    time so events can be counted and the host time after the
 *    measurement window closes can be attributed; the Tracer records
 *    tracepoints, which are folded into per-layer span latencies, and
 *    the public StatRegistry / IsolationChecker counters are read when
 *    each testbed (or churn VM) is done.
 *
 * Waiting for a gate (bring-up, one churn op) steps the queue until the
 * gate opens, in both ways.
 *
 * Both ways produce bit-identical simulated results, which the driver
 * checks on every traced run.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "workloads/redis.hh"
#include "workloads/testbed.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using cg::sim::Tick;

double secondsSince(Clock::time_point t0);

/** Host seconds of a fixed piece of host work shaped like the
 * simulator's inner loop but sharing none of its code (probe.cc):
 * moves with the host's own speed, never with the program's. */
double probeHostS();

/** The three workloads. */
enum class Workload { BlkSync, KvOpenLoop, CvmChurn };

/** Parse a workload name ("blk-sync", ...); false if unknown. */
bool parseWorkload(const std::string& name, Workload& out);

/**
 * Per-layer tallies of one workload instance, summed over all its
 * testbeds. Only the traced run fills the sim, counter and span rows.
 */
struct LayerTally {
    /** @{ sim: events driven through EventQueue::step(). */
    std::uint64_t events = 0;
    std::uint64_t tailEvents = 0;   ///< after the window closed
    std::uint64_t peakPending = 0;
    double stepHostS = 0;           ///< host time inside step loops
    double tailHostS = 0;           ///< ... after the window closed
    /** @} */
    /** @{ workloads: host microseconds per testbed / VM. */
    std::vector<double> testbedBuildUs;
    std::vector<double> vmCreateUs;
    std::vector<double> bringupHostUs;
    std::vector<double> teardownUs;
    /** @} */
    /** Counter sums read from each StatRegistry, keyed by the metric
     * stem they feed ("vmm.kvm_exits", "rmm.rmi_calls", ...). */
    std::map<std::string, double> counts;
    /** Sample sets (microseconds) merged across testbeds. */
    std::map<std::string, std::vector<double>> samplesUs;
    /** Churn op timings per kind ("start", "migrate", ...). */
    std::map<std::string, std::vector<double>> opHostMs;
    std::map<std::string, std::vector<double>> opSimMs;
};

/** One workload instance's outcome. */
struct RunResult {
    double wallS = 0; ///< sum of partWallS
    double setupS = 0;
    /** Host seconds of each part (a point or testbed), in run order:
     * the whole part, and its set-up alone. */
    std::vector<double> partWallS;
    std::vector<double> partSetupS;
    /** probeHostS() just before each part. */
    std::vector<double> partProbeS;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated unit-op latency samples (us) per mode. */
    std::map<std::string, std::vector<double>> latUs;
    /** Workload-specific exact results compared across runs. */
    std::vector<double> fingerprint;
    LayerTally layers;
    /** Correctness violations (empty: every check passed). */
    std::vector<std::string> violations;

    void
    fail(std::string what)
    {
        violations.push_back(std::move(what));
    }
};

/**
 * Incremental fold of tracepoints into span latencies. The tracer ring
 * is drained whenever it half fills, so spans may straddle drains:
 * open begins are kept across feed() calls.
 */
class SpanFold
{
  public:
    void feed(const std::vector<cg::sim::Tracer::Event>& events,
              LayerTally& tally);

  private:
    std::map<int, Tick> recOpen_;               ///< core -> rec-run B
    std::map<int, std::deque<Tick>> rings_;     ///< core -> rings
    std::map<int, std::deque<Tick>> posts_;     ///< domain -> posts
};

/**
 * Advances one testbed's simulation, timed or traced. All workloads go
 * through here so the two modes cannot drift apart.
 */
class SimDriver
{
  public:
    SimDriver(cg::workloads::Testbed& bed, bool traced,
              LayerTally& tally);

    SimDriver(const SimDriver&) = delete;
    SimDriver& operator=(const SimDriver&) = delete;

    /** Step until @p g opens (both modes); false past @p limit. */
    bool runUntilOpen(cg::sim::Gate& g, Tick limit);

    /** Advance to @p limit: Testbed::run() when timed, step() when
     * traced (same events, same order, same final time). */
    void runTo(Tick limit);

    /** The measurement window closed (called from model code). */
    void closeWindow() { windowClosed_ = true; }

    /** Close the window once simulated time reaches @p t. */
    void closeWindowAt(Tick t) { windowEnd_ = t; }

    /** Drain tracepoints and fold the testbed-wide registry stats;
     * call once, after the workload and before the testbed dies. */
    void finish();

  private:
    /** Count one stepped event; @p sentinels of ours are pending. */
    void afterStep(std::size_t sentinels);
    /** Add host time since @p t0 to the step (and tail) totals. */
    void accountSegment(Clock::time_point t0);
    void drainTracer();

    cg::workloads::Testbed& bed_;
    bool traced_;
    LayerTally& tally_;
    SpanFold spans_;
    bool windowClosed_ = false;
    bool tailStarted_ = false;
    Tick windowEnd_ = cg::sim::maxTick;
    Clock::time_point tailStart_{};
    std::size_t drainAt_ = 0;
};

/** @{ Fold registry stats into @p t (traced runs). */
/** Per-VM rows (kvm.<vm>, guest.<vm>, gapped.<vm>, mqnet.<vm>); call
 * before the VM is destroyed. */
void foldVmStats(const cg::sim::StatRegistry& reg, const std::string& vm,
                 LayerTally& t);
/** Testbed-wide rows (host, rmm, hw.gic, doorbell, check). */
void foldTestbedStats(const cg::sim::StatRegistry& reg, LayerTally& t);
/** @} */

/** One fig. 9-style point: closed-loop O_DIRECT I/O, one outstanding. */
struct BlkPoint {
    cg::workloads::RunMode mode = cg::workloads::RunMode::CoreGapped;
    std::uint64_t recordBytes = 4096;
    bool write = false;
    int ops = 512;
    std::uint64_t seed = 0xc0ffee; ///< testbed seed (fig. 9's default)
};

struct BlkPointResult {
    std::vector<double> latUs; ///< simulated latency of each I/O
    int completed = 0;
    Tick elapsed = 0;          ///< first I/O issued to last completed
    double throughputMBps = 0; ///< as fig. 9 computes it
};

/** Run one point; adds its set-up time, failures and (traced) layer
 * tallies to @p out. */
BlkPointResult runBlkPoint(const BlkPoint& p, bool traced, RunResult& out);

/** The serving-path configurations (table 5's open-loop sweep). */
enum class KvMode { Shared, Gapped, GappedIpu };

const char* kvModeName(KvMode m);

/** One open-loop GET point at a fixed offered load. */
struct KvPoint {
    KvMode mode = KvMode::GappedIpu;
    double offeredKrps = 80.0;
    Tick window = 100 * cg::sim::msec;
    std::uint64_t seed = 0xc0ffee; ///< testbed seed (table 5's default)
};

struct KvPointResult {
    cg::workloads::RedisOpenLoop::Result r;
    std::uint64_t kickExits = 0; ///< trapped doorbells (data path)
    std::vector<double> latUs;   ///< simulated latency of each GET
};

KvPointResult runKvPoint(const KvPoint& p, bool traced, RunResult& out);

/** @{ The workloads; @p seed drives every input. */
RunResult runBlkSync(std::uint64_t seed, bool traced);
RunResult runKvOpenLoop(std::uint64_t seed, bool traced);
RunResult runCvmChurn(std::uint64_t seed, bool traced);
RunResult runWorkload(Workload w, std::uint64_t seed, bool traced);
/** @} */

/** Mix a benchmark seed into a per-testbed simulation seed. */
std::uint64_t testbedSeed(std::uint64_t seed, std::uint64_t salt);

/** sim::Distribution::percentile of @p v (p in [0,100]; 0 if empty). */
double percentile(const std::vector<double>& v, double p);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
