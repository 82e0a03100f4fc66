/**
 * @file
 * Table 5: redis-benchmark, 50 clients, 512-byte objects, over SR-IOV
 * (16 physical cores: 16-vCPU shared VM vs 15-vCPU core-gapped CVM).
 *
 *                    Throughput    Latency (ms)
 *                       (krps)   mean   p95   p99
 *   SET  shared core     51.7    0.52  0.60  1.20
 *        core gapped     56.2    0.63  0.97  1.44
 *   GET  shared core     48.8    0.54  0.64  1.20
 *        core gapped     55.3    0.57  0.78  1.24
 *   LRANGE 100 shared    11.6    1.51  2.03  2.38
 *        core gapped     14.5    1.24  1.56  1.82
 *
 * Plus the serving-path extension (DESIGN.md section 11): an open-loop
 * Poisson GET sweep over the multi-queue NIC, reporting p50/p99/p999
 * per offered-load point for three configurations —
 *
 *   hosted      shared-core CVM, trapped multi-queue virtio
 *   gapped      core-gapped CVM, trapped multi-queue virtio +
 *               adaptive wake-up spin
 *   gapped-ipu  core-gapped CVM, IPU-offloaded device on reserved I/O
 *               cores, direct-injected RX, adaptive wake-up spin
 *               (zero VM exits on the data path, asserted below)
 *
 * — and the offered load at which each mode's p999 crosses the 2 ms
 * SLO (the "knee"), the tracked tail-latency metric. The measured
 * shape: gapped+trapped knees earliest (all emulation and kick-exit
 * relays share the one host core), hosted in the middle, gapped-ipu
 * latest with zero data-path exits. `--quick` runs a single
 * gapped-ipu point for the ctest smoke.
 */

#include <map>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/redis.hh"

namespace sim = cg::sim;
using namespace cg::workloads;
using cg::bench::banner;
using sim::Tick;

namespace {

RedisBenchmark::Result
runRedis(RunMode mode, RedisOp op)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 16;
    cfg.mode = mode;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("redis", 16);
    bed.addSriovNic(vm);
    SriovGuestNic nic(*vm.sriov);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack);
    RedisBenchmark::Config rcfg;
    rcfg.op = op;
    rcfg.clients = 50;
    rcfg.duration = 2 * sim::sec;
    RedisBenchmark rb(bed, vm, nic, clients, rcfg);
    rb.install();
    bed.spawnStart();
    bed.run(6 * sim::sec);
    return rb.result();
}

void
row(const char* label, const RedisBenchmark::Result& r)
{
    std::printf("  %-22s %8.1f %8.2f %8.2f %8.2f\n", label,
                r.throughputKrps, r.meanMs, r.p95Ms, r.p99Ms);
}

// --------------------------------------------------- open-loop sweep

/** The three serving-path configurations the sweep compares. */
enum class SweepMode { Hosted, Gapped, GappedIpu };

const char*
sweepModeName(SweepMode m)
{
    switch (m) {
      case SweepMode::Hosted:
        return "hosted";
      case SweepMode::Gapped:
        return "gapped";
      case SweepMode::GappedIpu:
        return "gapped-ipu";
    }
    return "?";
}

/** One load point's outcome: the workload result plus the device's
 * trapped-doorbell count (the data-path VM exits). */
struct SweepPoint {
    RedisOpenLoop::Result r;
    std::uint64_t kickExits = 0;
    std::uint64_t kickRescues = 0;
};

/** p999 SLO for the knee metric, milliseconds. */
constexpr double kneeSloMs = 2.0;

SweepPoint
runOpenLoop(SweepMode m, double offered_krps, Tick duration)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 16;
    cfg.mode = m == SweepMode::Hosted ? RunMode::SharedCoreCvm
                                      : RunMode::CoreGapped;
    if (m != SweepMode::Hosted)
        cfg.wakeSpinMax = 4 * sim::usec;
    Testbed bed(cfg);
    // 12 physical cores for the VM in every mode (shared: 12 vCPUs;
    // gapped: 11 vCPUs + 1 host core); the gapped-ipu mode reserves 4
    // of the remaining cores as the device's I/O cores.
    VmInstance& vm = bed.createVm("redis", 12);
    Testbed::MqNicOptions nopt;
    nopt.queues = 4;
    if (m == SweepMode::GappedIpu) {
        nopt.ipuOffload = true;
        nopt.ipuCores = 4;
        nopt.directRx = true;
    }
    bed.addMqNic(vm, nopt);
    MqGuestNic nic(*vm.mqnet);
    // Enough remote CPUs that the client machine never bottlenecks
    // the offered load (one remote core serialises at ~1/remoteStack
    // pps, below the sweep's top points).
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack, 8);
    RedisOpenLoop::Config rcfg;
    rcfg.op = RedisOp::Get;
    rcfg.offeredKrps = offered_krps;
    rcfg.duration = duration;
    rcfg.serverThreads = 4;
    RedisOpenLoop ol(bed, vm, nic, clients, rcfg);
    ol.install();
    ol.registerStats(bed.sim().stats());
    bed.spawnStart();
    bed.run(duration + 10 * sim::sec);
    // Dump --stats/--trace while the workload's openloop.* StatGroup
    // is still registered (it detaches when ol goes out of scope).
    bed.writeObservability();
    SweepPoint p;
    p.r = ol.result();
    p.kickExits = vm.mqnet->dataPathKickExits();
    p.kickRescues = vm.mqnet->kickRescues();
    return p;
}

/**
 * Offered load (krps) at which p999 first crosses the SLO, linearly
 * interpolated between the bracketing sweep points. Returns the top
 * offered load if the sweep never crosses (the knee is off the right
 * edge of the sweep — a better number than pretending it's infinite).
 */
double
kneeKrps(const std::vector<SweepPoint>& pts)
{
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].r.p999Ms <= kneeSloMs)
            continue;
        if (i == 0)
            return pts[0].r.offeredKrps;
        const double x0 = pts[i - 1].r.offeredKrps;
        const double x1 = pts[i].r.offeredKrps;
        const double y0 = pts[i - 1].r.p999Ms;
        const double y1 = pts[i].r.p999Ms;
        if (y1 <= y0)
            return x1;
        return x0 + (x1 - x0) * (kneeSloMs - y0) / (y1 - y0);
    }
    return pts.empty() ? 0.0 : pts.back().r.offeredKrps;
}

void
openLoopSweep(bool quick)
{
    banner("Open-loop GET sweep (multi-queue serving path)",
           "extension of table 5 / section 5.3; DESIGN.md section 11");
    std::printf("  %-12s %8s %9s %8s %8s %8s %8s %10s\n", "mode",
                "offered", "achieved", "mean", "p50", "p99", "p999",
                "kick-exits");
    std::printf("  %-12s %8s %9s %8s %8s %8s %8s\n", "", "(krps)",
                "(krps)", "(ms)", "(ms)", "(ms)", "(ms)");

    const std::vector<SweepMode> modes =
        quick ? std::vector<SweepMode>{SweepMode::GappedIpu}
              : std::vector<SweepMode>{SweepMode::Hosted,
                                       SweepMode::Gapped,
                                       SweepMode::GappedIpu};
    const std::vector<double> loads =
        quick ? std::vector<double>{80.0}
              : std::vector<double>{40.0,  80.0,  120.0,
                                    160.0, 200.0, 240.0};
    const Tick duration = quick ? 100 * sim::msec : 400 * sim::msec;

    for (SweepMode m : modes) {
        std::vector<SweepPoint> pts;
        std::uint64_t ipu_dataplane_exits = 0;
        for (double load : loads) {
            SweepPoint p = runOpenLoop(m, load, duration);
            std::printf("  %-12s %8.0f %9.1f %8.2f %8.2f %8.2f "
                        "%8.2f %10llu\n",
                        sweepModeName(m), load, p.r.achievedKrps,
                        p.r.meanMs, p.r.p50Ms, p.r.p99Ms, p.r.p999Ms,
                        static_cast<unsigned long long>(p.kickExits));
            const std::string tag = sim::strFormat(
                "openloop GET %s @%.0fkrps", sweepModeName(m), load);
            cg::bench::jsonRow(tag + " p50 ms", 0, p.r.p50Ms);
            cg::bench::jsonRow(tag + " p99 ms", 0, p.r.p99Ms);
            cg::bench::jsonRow(tag + " p999 ms", 0, p.r.p999Ms);
            cg::bench::jsonRow(tag + " achieved krps", load,
                               p.r.achievedKrps);
            if (m == SweepMode::GappedIpu)
                ipu_dataplane_exits += p.kickExits + p.r.irqExits;
            pts.push_back(p);
        }
        const double knee = kneeKrps(pts);
        std::printf("  %-12s p999 %.1fms-SLO knee: %.1f krps\n",
                    sweepModeName(m), kneeSloMs, knee);
        cg::bench::jsonRow(
            sim::strFormat("openloop GET %s p999 knee krps",
                           sweepModeName(m)),
            0, knee);
        if (m == SweepMode::GappedIpu) {
            // The IPU backend's whole point: posted doorbells plus
            // direct-injected RX leave nothing for the host to trap
            // on the data path. Tracked so a regression that
            // reintroduces exits is visible in the report.
            std::printf("  %-12s data-path VM exits across sweep: "
                        "%llu\n",
                        sweepModeName(m),
                        static_cast<unsigned long long>(
                            ipu_dataplane_exits));
            cg::bench::jsonRow(
                "openloop ipu dataplane exits", 0,
                static_cast<double>(ipu_dataplane_exits));
        }
    }
    cg::bench::note("open loop: arrivals are Poisson at the offered "
                    "rate regardless of completions, so queueing "
                    "delay lands in p99/p999 instead of throttling "
                    "the load. The knee is where p999 crosses the "
                    "2 ms SLO. Trapped emulation on a core-gapped "
                    "CVM knees earliest: every queue's I/O thread "
                    "and every relayed kick exit serialises on the "
                    "single host core, which is exactly why the "
                    "serving path wants the IPU backend -- emulation "
                    "on reserved I/O cores with posted doorbells and "
                    "direct-injected RX knees latest, with zero VM "
                    "exits on the data path.");
    cg::bench::sectionEnd();
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    if (cg::bench::quick()) {
        // Smoke mode: one gapped-ipu load point, shortened window;
        // skips the closed-loop table entirely.
        openLoopSweep(true);
        return 0;
    }
    banner("Table 5: Redis benchmark (50 clients, 512-byte objects)",
           "table 5, section 5.4");
    std::printf("  %-22s %8s %8s %8s %8s\n", "", "krps", "mean",
                "p95", "p99");
    struct PaperRow {
        double krps, mean, p95, p99;
    };
    const std::map<RedisOp, std::pair<PaperRow, PaperRow>> paper = {
        {RedisOp::Set,
         {{51.7, 0.52, 0.60, 1.20}, {56.2, 0.63, 0.97, 1.44}}},
        {RedisOp::Get,
         {{48.8, 0.54, 0.64, 1.20}, {55.3, 0.57, 0.78, 1.24}}},
        {RedisOp::Lrange100,
         {{11.6, 1.51, 2.03, 2.38}, {14.5, 1.24, 1.56, 1.82}}},
    };
    for (RedisOp op :
         {RedisOp::Set, RedisOp::Get, RedisOp::Lrange100}) {
        RedisBenchmark::Result shared =
            runRedis(RunMode::SharedCore, op);
        RedisBenchmark::Result gapped =
            runRedis(RunMode::CoreGapped, op);
        std::printf("%s\n", redisOpName(op));
        row("  shared core", shared);
        row("  core gapped", gapped);
        const auto& p = paper.at(op);
        std::printf("    paper: shared %.1f krps, gapped %.1f krps "
                    "(gapped/shared throughput: paper %.2fx, "
                    "measured %.2fx)\n",
                    p.first.krps, p.second.krps,
                    p.second.krps / p.first.krps,
                    shared.throughputKrps > 0
                        ? gapped.throughputKrps / shared.throughputKrps
                        : 0.0);
    }
    cg::bench::note("paper shape: core gapping wins throughput ~10-25% "
                    "on all three ops. This model reproduces absolute "
                    "magnitudes and latency tails but measures parity "
                    "between modes: with NAPI coalescing a saturated "
                    "server takes no interrupt-path exits in either "
                    "configuration, and the paper's residual shared-"
                    "core interference is finer-grained than the "
                    "structural warm-up model (see EXPERIMENTS.md).");
    cg::bench::sectionEnd();
    openLoopSweep(false);
    return 0;
}
