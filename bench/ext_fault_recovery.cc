/**
 * @file
 * Extension: recovery cost of the self-healing control plane.
 * For each injectable fault site (sim/fault.hh) this harness runs a
 * fault-heavy guest workload with exactly one fault injected, and
 * reports how quickly the control plane detected and recovered from
 * it, plus the end-to-end slowdown against a fault-free run of the
 * same workload. IPI faults are absorbed by the redundant wake paths
 * (re-ring + bounded waits), so they show no explicit detection — the
 * slowdown column is the whole story there.
 */

#include <algorithm>
#include <vector>

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;
using sim::Proc;
using sim::Tick;
using sim::msec;

namespace {

constexpr int kRounds = 24;

/** Rounds of page faults plus compute: exits, doorbell rings, sync
 * RPCs, and RMI calls keep flowing, so every fault site stays hot. */
Proc<void>
faultingWorker(Testbed& bed, guest::VCpu& v, int idx, Tick& finished,
               std::uint64_t& rounds)
{
    co_await bed.started().wait();
    for (int r = 0; r < kRounds; ++r) {
        for (int p = 0; p < 3; ++p) {
            co_await v.pageFault(
                0x50000000ull +
                static_cast<std::uint64_t>(idx * 4096 + r * 3 + p) *
                    4096);
        }
        co_await sim::Compute{2 * msec};
        ++rounds;
    }
    finished = bed.sim().now();
    co_await v.shutdown();
}

/** Endless variant for the monitor-hang run: the wedged monitor never
 * lets its vCPU finish, so completion is the wrong success metric. */
Proc<void>
endlessWorker(Testbed& bed, guest::VCpu& v, int idx)
{
    co_await bed.started().wait();
    for (std::uint64_t i = 0;; ++i) {
        co_await v.pageFault(
            0x80000000ull +
            static_cast<std::uint64_t>(idx * 512 + i % 256) * 4096);
        co_await sim::Compute{3 * msec};
    }
}

Proc<void>
teardownThenFlag(cg::core::GappedVm& g, bool& done)
{
    co_await g.teardown();
    done = true;
}

Proc<void>
terminateThenStamp(cg::core::GappedVm& g, sim::Simulation& s,
                   Tick& finished)
{
    co_await g.terminate();
    finished = s.now();
}

struct Row {
    bool completed = false;
    Tick elapsed = 0;           //!< started -> last worker finished
    std::uint64_t rounds = 0;
    std::uint64_t injected = 0;
    double detectUs = -1.0;     //!< -1: no explicit detection event
    double recoverUs = -1.0;
};

/** Run the fixed workload with one fault from `plan` injected; empty
 * plan is the fault-free baseline. */
Row
run(const std::string& plan, sim::FaultSite site)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 17;
    Testbed bed(cfg);
    if (!plan.empty())
        bed.sim().faults().arm(5, sim::FaultPlan::parse(plan));
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("rec", 4, vcfg);
    const int vcpus = vm.vm->numVcpus();
    Tick start = bed.sim().now();
    std::vector<Tick> finished(static_cast<std::size_t>(vcpus), 0);
    Row r;
    for (int i = 0; i < vcpus; ++i) {
        vm.vcpu(i).startGuest(
            "worker", faultingWorker(bed, vm.vcpu(i), i,
                                     finished[static_cast<size_t>(i)],
                                     r.rounds));
    }
    bed.spawnStart();
    bed.run(bed.sim().now() + 2 * sim::sec);
    r.completed = bed.allShutdown();
    for (Tick f : finished)
        r.elapsed = std::max(r.elapsed, f > start ? f - start : Tick{0});
    bool torn = false;
    bed.sim().spawn("teardown",
                    teardownThenFlag(*vm.gapped, torn));
    bed.run(bed.sim().now() + 1 * sim::sec);
    const sim::FaultPlan& faults = bed.sim().faults();
    r.injected = faults.injected(site);
    if (faults.detectionLatency(site).count() > 0)
        r.detectUs = faults.detectionLatency(site).meanUs();
    if (faults.recoveryLatency(site).count() > 0)
        r.recoverUs = faults.recoveryLatency(site).meanUs();
    r.completed = r.completed && torn;
    return r;
}

/** Monitor-hang is recovered by terminate()'s escalation, not by the
 * workload finishing: wedge the monitor mid-run, then terminate. */
Row
runMonitorHang()
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 17;
    Testbed bed(cfg);
    bed.sim().faults().arm(
        5, sim::FaultPlan::parse("monitor-hang:from=20ms:max=1"));
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("rec", 4, vcfg);
    for (int i = 0; i < vm.vm->numVcpus(); ++i)
        vm.vcpu(i).startGuest("worker",
                              endlessWorker(bed, vm.vcpu(i), i));
    bed.spawnStart();
    bed.run(bed.sim().now() + 100 * msec);
    Tick done_at = 0;
    const Tick t0 = bed.sim().now();
    bed.sim().spawn("killer",
                    terminateThenStamp(*vm.gapped, bed.sim(), done_at));
    bed.run(bed.sim().now() + 5 * sim::sec);
    const sim::FaultPlan& faults = bed.sim().faults();
    Row r;
    r.completed = done_at != 0;
    r.elapsed = done_at > t0 ? done_at - t0 : Tick{0};
    r.injected = faults.injected(sim::FaultSite::MonitorHang);
    if (faults.detectionLatency(sim::FaultSite::MonitorHang).count())
        r.detectUs = faults.detectionLatency(sim::FaultSite::MonitorHang)
                         .meanUs();
    if (faults.recoveryLatency(sim::FaultSite::MonitorHang).count())
        r.recoverUs = faults.recoveryLatency(sim::FaultSite::MonitorHang)
                          .meanUs();
    return r;
}

struct SiteCase {
    sim::FaultSite site;
    const char* plan;
};

void
printRow(const char* label, const Row& r, const Row& base)
{
    char detect[32];
    char recover[32];
    if (r.detectUs >= 0)
        std::snprintf(detect, sizeof(detect), "%10.2f", r.detectUs);
    else
        std::snprintf(detect, sizeof(detect), "%10s", "absorbed");
    if (r.recoverUs >= 0)
        std::snprintf(recover, sizeof(recover), "%10.2f", r.recoverUs);
    else
        std::snprintf(recover, sizeof(recover), "%10s", "-");
    const double slowdown =
        base.elapsed > 0
            ? static_cast<double>(r.elapsed) /
                  static_cast<double>(base.elapsed)
            : 0.0;
    std::printf("  %-22s %8llu %s %s %12.3f %9.3fx  %s\n", label,
                static_cast<unsigned long long>(r.injected), detect,
                recover, sim::toMsec(r.elapsed), slowdown,
                r.completed ? "ok" : "FAILED");
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Extension: fault-recovery latency of the control plane",
           "robustness extension (no paper counterpart)");

    const Row base = run("", sim::FaultSite::IpiDrop);
    std::printf("  %-22s %8s %10s %10s %12s %10s\n", "fault site",
                "injected", "detect us", "recover us", "elapsed ms",
                "slowdown");
    printRow("none (baseline)", base, base);

    const SiteCase cases[] = {
        {sim::FaultSite::IpiDrop, "ipi-drop:nth=4:max=1"},
        {sim::FaultSite::IpiDelay, "ipi-delay:nth=7:param=20us:max=1"},
        {sim::FaultSite::DoorbellLost, "doorbell-lost:nth=3:max=1"},
        {sim::FaultSite::SyncRpcStall, "syncrpc-stall:nth=5:max=1"},
        {sim::FaultSite::RmiTransientError,
         "rmi-transient-error:nth=6:max=1"},
        {sim::FaultSite::HotplugOfflineFail,
         "hotplug-offline-fail:nth=1:max=1"},
        {sim::FaultSite::HotplugOnlineFail,
         "hotplug-online-fail:nth=1:max=1"},
    };
    bool all_ok = base.completed && base.rounds == 3u * kRounds;
    for (const SiteCase& c : cases) {
        const Row r = run(c.plan, c.site);
        const char* name = sim::faultSiteName(c.site);
        printRow(name, r, base);
        all_ok = all_ok && r.completed && r.injected >= 1 &&
                 r.rounds == 3u * kRounds;
        if (r.recoverUs >= 0)
            cg::bench::jsonRow(std::string("recover-us/") + name, 0.0,
                               r.recoverUs);
        cg::bench::jsonRow(std::string("slowdown/") + name, 1.0,
                           base.elapsed > 0
                               ? static_cast<double>(r.elapsed) /
                                     static_cast<double>(base.elapsed)
                               : 0.0);
    }

    const Row hang = runMonitorHang();
    printRow("monitor-hang", hang, base);
    all_ok = all_ok && hang.completed && hang.injected >= 1 &&
             hang.recoverUs >= 0;
    cg::bench::jsonRow("recover-us/monitor-hang", 0.0, hang.recoverUs);

    cg::bench::note("every fault is injected exactly once mid-run; "
                    "'absorbed' means the redundant wake paths "
                    "(watchdog re-ring, bounded poke timeouts, RMI "
                    "retries) hid the fault with no dedicated "
                    "detection event. monitor-hang's elapsed column is "
                    "the terminate() escalation time, not workload "
                    "completion.");
    cg::bench::sectionEnd();
    if (!all_ok) {
        std::fprintf(stderr, "ext_fault_recovery: FAILED — a run did "
                             "not complete or a fault was not "
                             "injected\n");
        return 1;
    }
    return 0;
}
