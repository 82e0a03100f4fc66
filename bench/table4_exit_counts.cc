/**
 * @file
 * Table 4: interrupt delegation effect on CoreMark-PRO exit counts
 * (core-gapped CVM, 15 vCPUs + 1 host core, ~4.5 s run, 5 seeds):
 *
 *                            Without delegation   With delegation
 *   Interrupt-related exits        33954 +- 161         390 +- 3
 *   Total exits                    37712 +- 504        1324 +- 60
 *
 * Interrupt-related exits come from the guest tick (2 per tick without
 * delegation) and host-initiated kicks; the remainder is console MMIO
 * and stage-2 faults.
 */

#include "bench/common.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "workloads/coremark.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;
using cg::bench::compareRow;
using sim::Proc;
using sim::Tick;
using sim::msec;

namespace {

/** Console chatter: periodic MMIO writes; every 2nd gets an echo IRQ
 * from the host side (a kick), as a console/ack device would cause. */
Proc<void>
consoleChatter(Testbed& bed, VmInstance& vm, int vcpu_idx, Tick period,
               Tick duration)
{
    co_await bed.started().wait();
    guest::VCpu& v = vm.vcpu(vcpu_idx);
    const Tick deadline = bed.sim().now() + duration;
    int n = 0;
    while (bed.sim().now() < deadline) {
        co_await sim::Delay{period};
        co_await v.mmioWrite(0x0a000000 + 0x10, 0x41, 1);
        if (++n % 2 == 0)
            vm.kvm->queueInjection(vcpu_idx, 44); // console IRQ
    }
}

struct Counts {
    double irq;
    double total;
};

Counts
runOnce(bool delegation, std::uint64_t seed, RunOptions run)
{
    Testbed::Config cfg;
    cfg.run = std::move(run);
    cfg.numCores = 16;
    cfg.mode = delegation ? RunMode::CoreGapped
                          : RunMode::CoreGappedNoDelegation;
    cfg.seed = seed;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("cmpro", 16); // 15 vCPUs + host core
    // A console device whose writes land in unclaimed MMIO space.
    cg::vmm::MmioRange console;
    console.base = 0x0a000000;
    console.size = 0x1000;
    console.onWrite = [](const cg::rmm::ExitInfo&) {};
    console.onRead = [](std::uint64_t, int) { return 0ull; };
    vm.kvm->mapMmio(console);
    vm.vcpu(0).setVirqHandler(44, [] {});

    const Tick duration = 4500 * msec;
    CoreMarkPro::Config wcfg;
    wcfg.duration = duration;
    CoreMarkPro cm(bed, vm, wcfg);
    cm.install();
    for (int i = 0; i < vm.numVcpus(); ++i) {
        bed.sim().spawn(sim::strFormat("console%d", i),
                        consoleChatter(bed, vm, i, 70 * msec,
                                       duration));
    }
    bed.spawnStart();
    bed.run(duration + 3 * sim::sec);
    Counts c;
    c.irq = static_cast<double>(
        bed.rmm().stats().irqRelatedExitsToHost.value());
    c.total =
        static_cast<double>(bed.rmm().stats().exitsToHost.value());
    return c;
}

void
meanStd(const std::vector<Counts>& runs, Counts& mean, Counts& sd)
{
    sim::Accumulator irq, total;
    for (const Counts& c : runs) {
        irq.sample(c.irq);
        total.sample(c.total);
    }
    mean = Counts{irq.mean(), total.mean()};
    sd = Counts{irq.stddev(), total.stddev()};
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Table 4: interrupt delegation effect on CoreMark-PRO",
           "table 4, sections 4.4 and 5.2");
    // 5 seeds x {without, with} delegation, each an independent
    // Testbed: fan the 10 runs across the pool. Seeds stay the
    // explicit 1..5 of the paper setup, so results match serial runs.
    // Run options are taken in index order: point 0 is observed.
    std::vector<RunOptions> opts;
    for (std::size_t i = 0; i < 10; ++i)
        opts.push_back(cg::bench::runOptions());
    const auto runs = sim::ParallelRunner::mapIndexed<Counts>(
        10, [&](std::size_t i) {
            return runOnce(/*delegation=*/i % 2 == 1,
                           /*seed=*/1 + i / 2, opts[i]);
        });
    std::vector<Counts> without, with_d;
    for (std::size_t i = 0; i < runs.size(); ++i)
        (i % 2 == 0 ? without : with_d).push_back(runs[i]);
    Counts wo_m, wo_s, wi_m, wi_s;
    meanStd(without, wo_m, wo_s);
    meanStd(with_d, wi_m, wi_s);

    std::printf("  %-26s %22s %20s\n", "",
                "Without delegation", "With delegation");
    std::printf("  %-26s %12.0f +- %-6.0f %12.0f +- %-4.0f\n",
                "Interrupt-related exits", wo_m.irq, wo_s.irq, wi_m.irq,
                wi_s.irq);
    std::printf("  %-26s %12.0f +- %-6.0f %12.0f +- %-4.0f\n",
                "Total exits", wo_m.total, wo_s.total, wi_m.total,
                wi_s.total);
    std::printf("\npaper vs measured:\n");
    compareRow("irq exits, no delegation", 33954, wo_m.irq, "");
    compareRow("total exits, no delegation", 37712, wo_m.total, "");
    compareRow("irq exits, delegated", 390, wi_m.irq, "");
    compareRow("total exits, delegated", 1324, wi_m.total, "");
    const double reduction = wo_m.total / wi_m.total;
    std::printf("  total-exit reduction: paper 28x, measured %.0fx\n",
                reduction);
    cg::bench::sectionEnd();
    return 0;
}
