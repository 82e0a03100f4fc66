/**
 * @file
 * Table 2: comparison of null RMM call latencies.
 *
 *   Core-gapped asynchronous (vCPU run calls)   2757.6 ns
 *   Core-gapped synchronous (page table update)  257.7 ns
 *   Same-core synchronous (EL3 + mitigations)   >12.8 us
 *
 * The asynchronous number is the full round trip of a run call whose
 * guest exits immediately (hypercall loop); the synchronous number is
 * a busy-wait RPC served by an idle dedicated core; the same-core
 * number is the SMC transport with the firmware's mitigation flushes.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;
using cg::bench::compareRow;
using sim::Proc;
using sim::Tick;

namespace {

Proc<void>
hypercallLoop(guest::VCpu& v, int n)
{
    for (int i = 0; i < n; ++i)
        co_await v.hypercall(0);
    co_await v.shutdown();
}

Proc<void>
syncCaller(cg::core::SyncRpcQueue& q, int n, sim::LatencyStat& lat,
           sim::Simulation& s)
{
    for (int i = 0; i < n; ++i) {
        const Tick t0 = s.now();
        co_await q.call([] { return cg::rmm::RmiStatus::Success; });
        lat.sample(s.now() - t0);
    }
}

Proc<void>
smcCaller(cg::vmm::LocalSmcTransport& t, int n, sim::LatencyStat& lat,
          sim::Simulation& s)
{
    for (int i = 0; i < n; ++i) {
        const Tick t0 = s.now();
        co_await t.call([] { return cg::rmm::RmiStatus::Success; });
        lat.sample(s.now() - t0);
    }
}

struct Results {
    double asyncNs;
    double syncNs;
    double smcNs;
};

Results
measure()
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0; // a null-call microbenchmark: no tick noise
    VmInstance& vm = bed.createVm("null", 2, vcfg);
    vm.vcpu(0).startGuest("hcloop", hypercallLoop(vm.vcpu(0), 3000));
    bed.spawnStart();

    // Synchronous calls from a separate host thread; they are served
    // by the dedicated core while its vCPU is exited, so issue them
    // after shutdown when the core only polls.
    bed.run(5 * sim::sec);

    sim::LatencyStat sync_lat;
    bed.kernel().createThread(
        "sync-caller",
        syncCaller(vm.gapped->syncRpc(), 2000, sync_lat, bed.sim()),
        cg::host::SchedClass::Fair, vm.hostMask);
    bed.run(10 * sim::sec);

    sim::LatencyStat smc_lat;
    cg::vmm::LocalSmcTransport smc(bed.machine());
    bed.kernel().createThread(
        "smc-caller", smcCaller(smc, 500, smc_lat, bed.sim()),
        cg::host::SchedClass::Fair, vm.hostMask);
    bed.run(15 * sim::sec);

    Results r;
    r.asyncNs = vm.gapped->runCallRtt().meanNs();
    r.syncNs = sync_lat.meanNs();
    r.smcNs = smc_lat.meanNs();
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Table 2: null RMM call latencies",
           "table 2, section 4.3");
    Results r = measure();
    std::printf("  %-46s %10s\n", "Call", "Latency");
    std::printf("  %-46s %8.1f ns\n",
                "Core-gapped asynchronous (vCPU run calls)", r.asyncNs);
    std::printf("  %-46s %8.1f ns\n",
                "Core-gapped synchronous (page table update)",
                r.syncNs);
    std::printf("  %-46s %8.1f ns\n",
                "Same-core synchronous (SMC + mitigations)", r.smcNs);
    std::printf("\npaper vs measured:\n");
    compareRow("async run call", 2757.6, r.asyncNs, "ns");
    compareRow("sync short call", 257.7, r.syncNs, "ns");
    compareRow("same-core call (paper: >12800)", 12800.0, r.smcNs,
               "ns");
    cg::bench::sectionEnd();
    return 0;
}
