/**
 * @file
 * Extension: Intel-TDX-style address-space management (section 6.1).
 * The paper expects a core-gapped TDX to perform moderately better
 * than core-gapped CCA because the host edits untrusted page-table
 * levels directly, needing fewer cross-core RPCs per stage-2 fault.
 * This harness measures a fault-heavy first-touch workload both ways.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;
using sim::Proc;
using sim::Tick;
using sim::usec;

namespace {

/** First-touch a sparse region: every page faults; every 2 MiB region
 * also needs fresh intermediate tables. */
Proc<void>
firstTouch(Testbed& bed, guest::VCpu& v, int pages, Tick& elapsed)
{
    co_await bed.started().wait();
    const Tick t0 = bed.sim().now();
    for (int i = 0; i < pages; ++i) {
        // Stride 2 MiB so each fault needs a new leaf table.
        co_await v.pageFault(0x100000000ull +
                             static_cast<std::uint64_t>(i) *
                                 (2ull << 20));
        co_await sim::Compute{5 * usec}; // touch the fresh page
    }
    elapsed = bed.sim().now() - t0;
    co_await v.shutdown();
}

struct Row {
    Tick elapsed = 0;
    std::uint64_t syncCalls = 0;
};

Row
run(bool tdx_style, int pages = 400)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("ft", 2, vcfg);
    // Flip the address-space management style (the transport stays
    // the core-gapped sync RPC either way).
    vm.kvm->setTdxStylePageTables(tdx_style);
    Row r;
    Tick elapsed = 0;
    vm.vcpu(0).startGuest("toucher",
                          firstTouch(bed, vm.vcpu(0), pages, elapsed));
    bed.spawnStart();
    bed.run(60 * sim::sec);
    r.elapsed = elapsed;
    r.syncCalls = vm.gapped->syncRpc().callsServed();
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Extension: TDX-style page tables vs CCA-style RMIs",
           "section 6.1 (discussion)");
    Row cca = run(false);
    Row tdx = run(true);
    std::printf("  400 first-touch faults (2 MiB stride, cold "
                "tables):\n");
    std::printf("  %-34s %10.2f ms   %6llu sync RPCs\n",
                "Arm-CCA style (every RTT op an RMI)",
                sim::toMsec(cca.elapsed),
                static_cast<unsigned long long>(cca.syncCalls));
    std::printf("  %-34s %10.2f ms   %6llu sync RPCs\n",
                "TDX style (host-managed tables)",
                sim::toMsec(tdx.elapsed),
                static_cast<unsigned long long>(tdx.syncCalls));
    std::printf("\n  %.1fx fewer cross-core RPCs, %.2fx end-to-end "
                "fault-path speedup.\n",
                tdx.syncCalls > 0
                    ? static_cast<double>(cca.syncCalls) /
                          static_cast<double>(tdx.syncCalls)
                    : 0.0,
                tdx.elapsed > 0 ? sim::toMsec(cca.elapsed) /
                                      sim::toMsec(tdx.elapsed)
                                : 0.0);
    cg::bench::note("section 6.1 predicts \"moderately better "
                    "relative performance, due to fewer cross-core "
                    "RPCs\": the RPC count indeed halves, but in this "
                    "model the end-to-end gain is small because each "
                    "fault's cost is dominated by the asynchronous "
                    "run-call exit (~25 us), not the ~0.26 us "
                    "synchronous page-table RPCs it saves.");
    cg::bench::sectionEnd();
    return 0;
}
