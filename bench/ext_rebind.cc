/**
 * @file
 * Extension ablation (not in the paper's evaluation): the cost of the
 * coarse-timescale vCPU-to-core rebinding that section 3 defers to
 * future work. Measures the guest-visible stall of one migration and
 * the throughput lost relative to an undisturbed run, supporting the
 * paper's intuition that rare rebinds (10s-of-seconds scale) are
 * practically free while fixing long-term fragmentation.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/coremark.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;
using sim::Proc;
using sim::Tick;
using sim::msec;

namespace {

Proc<void>
rebindAt(Testbed& bed, VmInstance& vm, Tick when, sim::CoreId to,
         Tick& stall)
{
    co_await bed.started().wait();
    co_await sim::Delay{when};
    guest::VCpu& v = vm.vcpu(0);
    const Tick before = v.guestCpuTime;
    const Tick t0 = bed.sim().now();
    (void)co_await vm.gapped->rebindVcpu(0, to);
    // Guest-visible stall: wall time of the migration minus the guest
    // CPU time it still managed to accrue (none, while parked).
    stall = (bed.sim().now() - t0) - (v.guestCpuTime - before);
}

double
runScore(bool with_rebind, Tick& stall)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("cm", 2); // 1 vCPU + 1 host core
    CoreMarkPro::Config wcfg;
    wcfg.duration = 1 * sim::sec;
    CoreMarkPro cm(bed, vm, wcfg);
    cm.install();
    if (with_rebind) {
        bed.sim().spawn("rebinder",
                        rebindAt(bed, vm, 500 * msec, 3, stall));
    }
    bed.spawnStart();
    bed.run(20 * sim::sec);
    return cm.result().score;
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Extension: coarse-timescale vCPU rebinding cost",
           "section 3 (deferred future work)");
    Tick stall = 0;
    const double base = runScore(false, stall);
    const double moved = runScore(true, stall);
    std::printf("  CoreMark score, undisturbed 1 s run: %10.0f\n",
                base);
    std::printf("  CoreMark score, one rebind at 0.5 s: %10.0f "
                "(%.2f%% lost)\n",
                moved, base > 0 ? (base - moved) / base * 100.0 : 0.0);
    std::printf("  guest-visible migration stall:       %10.2f ms\n",
                sim::toMsec(stall));
    cg::bench::note("one migration costs a hotplug round trip (a few ms "
                    "here); at the 10s-of-seconds cadence the paper "
                    "envisages, the amortised overhead is < 0.1%.");
    cg::bench::sectionEnd();
    return 0;
}
