/**
 * @file
 * Table 3: virtual inter-processor interrupt latency.
 *
 *   Core-gapped CVM, without delegation   43.9 us
 *   Core-gapped CVM, with delegation      2.22 us
 *   Shared-core VM                        3.85 us
 *
 * vCPU 0 writes ICC_SGI1R targeting vCPU 1; vCPU 1's handler
 * acknowledges in shared (guest) memory, which vCPU 0 spins on. With
 * delegation the RMM injects on the target's dedicated core directly;
 * without, the exit travels to the host, which must kick the target.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace hw = cg::hw;
using namespace cg::workloads;
using cg::bench::banner;
using cg::bench::compareRow;
using sim::Proc;
using sim::Tick;

namespace {

struct Shared {
    bool ack = false;
};

Proc<void>
sender(Testbed& bed, guest::VCpu& v, Shared& mem, int iters,
       sim::LatencyStat& lat)
{
    co_await bed.started().wait();
    sim::Simulation& s = bed.sim();
    // Let the receiver reach its idle loop.
    co_await sim::Compute{2 * sim::msec};
    for (int i = 0; i < iters; ++i) {
        mem.ack = false;
        const Tick t0 = s.now();
        co_await v.sendVIpi(1);
        while (!mem.ack)
            co_await sim::Compute{100 * sim::nsec};
        lat.sample(s.now() - t0);
        co_await sim::Compute{50 * sim::usec}; // spacing
    }
    co_await v.shutdown();
}

Proc<void>
receiver(Testbed& bed, guest::VCpu& v)
{
    co_await bed.started().wait();
    for (;;)
        co_await v.idle();
}

double
measure(RunMode mode, int iters = 200)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 4;
    cfg.mode = mode;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0; // isolate the IPI path
    VmInstance& vm = bed.createVm("vipi", 3, vcfg);
    auto mem = std::make_unique<Shared>();
    sim::LatencyStat lat;
    vm.vcpu(1).setVirqHandler(hw::sgiBase + 1,
                              [m = mem.get()] { m->ack = true; });
    vm.vcpu(0).startGuest("sender",
                          sender(bed, vm.vcpu(0), *mem, iters, lat));
    vm.vcpu(1).startGuest("receiver", receiver(bed, vm.vcpu(1)));
    bed.spawnStart();
    bed.run(30 * sim::sec);
    return lat.meanUs();
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Table 3: virtual inter-processor interrupt latency",
           "table 3, section 4.4");
    const double no_deleg = measure(RunMode::CoreGappedNoDelegation);
    const double deleg = measure(RunMode::CoreGapped);
    const double shared = measure(RunMode::SharedCore);
    std::printf("  %-42s %10s\n", "", "IPI latency");
    std::printf("  %-42s %8.2f us\n",
                "Core-gapped CVM, without delegation", no_deleg);
    std::printf("  %-42s %8.2f us\n",
                "Core-gapped CVM, with delegation", deleg);
    std::printf("  %-42s %8.2f us\n", "Shared-core VM", shared);
    std::printf("\npaper vs measured:\n");
    compareRow("gapped, no delegation", 43.9, no_deleg, "us");
    compareRow("gapped, delegated", 2.22, deleg, "us");
    compareRow("shared-core VM", 3.85, shared, "us");
    cg::bench::note("shape check: delegated < shared < no-delegation");
    cg::bench::sectionEnd();
    return 0;
}
