/**
 * @file
 * Integration tests for the observability layer on a full core-gapped
 * testbed: every component registers its stats under the documented
 * dotted names, tracepoints land in the ring during a real run, and —
 * the load-bearing property — tracing changes nothing about the
 * simulated results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/simulation.hh"
#include "sim/trace.hh"
#include "workloads/coremark.hh"

namespace guest = cg::guest;
namespace sim = cg::sim;
using namespace cg::workloads;
using sim::Proc;
using sim::Tick;
using sim::Compute;
using sim::msec;

namespace {

Proc<void>
faultComputeShutdown(Testbed& bed, guest::VCpu& v, int pages, Tick work)
{
    co_await bed.started().wait();
    for (int i = 0; i < pages; ++i)
        co_await v.pageFault(0x50000000ull +
                             static_cast<std::uint64_t>(i) * 4096);
    co_await Compute{work};
    co_await v.shutdown();
}

/** The observable end state of one deterministic gapped run. */
struct RunResult {
    Tick endTime = 0;
    std::uint64_t rmiCalls = 0;
    std::uint64_t kvmExits = 0;
    std::uint64_t gicDelivered = 0;
    std::uint64_t doorbellRings = 0;
    std::uint64_t syncRpcServed = 0;
    std::string traceJson;

    bool operator==(const RunResult& o) const
    {
        return endTime == o.endTime && rmiCalls == o.rmiCalls &&
               kvmExits == o.kvmExits &&
               gicDelivered == o.gicDelivered &&
               doorbellRings == o.doorbellRings &&
               syncRpcServed == o.syncRpcServed;
    }
};

RunResult
gappedRun(bool traced)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 0x0b5e7e5u;
    Testbed bed(cfg);
    if (traced)
        bed.sim().tracer().enable();
    guest::VmConfig vcfg;
    VmInstance& vm = bed.createVm("vm0", 3, vcfg);
    for (int i = 0; i < vm.numVcpus(); ++i) {
        vm.vcpu(i).startGuest(
            "w", faultComputeShutdown(bed, vm.vcpu(i), 4, 2 * msec));
    }
    bed.spawnStart();
    bed.run();

    const sim::StatRegistry& reg = bed.sim().stats();
    RunResult r;
    r.endTime = bed.sim().now();
    r.rmiCalls = reg.counter("rmm.rmiCalls")->value();
    r.kvmExits = reg.counter("kvm.vm0.exits")->value();
    r.gicDelivered = reg.counter("hw.gic.delivered")->value();
    r.doorbellRings = reg.counter("doorbell.rings")->value();
    r.syncRpcServed = reg.counter("gapped.vm0.syncRpcServed")->value();
    if (traced)
        r.traceJson = bed.sim().tracer().exportJson();
    return r;
}

} // namespace

TEST(Observability, ComponentsRegisterUnderDocumentedNames)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    bed.createVm("vm0", 3, vcfg);

    const sim::StatRegistry& reg = bed.sim().stats();
    for (const char* name :
         {"rmm.exitsToHost", "rmm.rmiCalls", "rmm.rebinds",
          "host.contextSwitches", "host.ipis", "host.hotplugOps",
          "hw.gic.delivered", "doorbell.rings", "kvm.vm0.exits",
          "kvm.vm0.runToRun", "guest.vm0.vcpu0.ticksHandled",
          "guest.vm0.vcpu0.guestCpuTime", "gapped.vm0.runToRun",
          "gapped.vm0.syncRpcServed"}) {
        EXPECT_TRUE(reg.has(name)) << "missing stat: " << name;
    }

    EXPECT_GT(reg.size(), 0u);
}

TEST(Observability, SecondVmRegistersAndNamesStayDisjoint)
{
    Testbed::Config cfg;
    cfg.numCores = 10;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    bed.createVm("vm0", 3, vcfg);
    const std::size_t one_vm = bed.sim().stats().size();
    bed.createVm("vm1", 3, vcfg);
    const sim::StatRegistry& reg = bed.sim().stats();
    EXPECT_GT(reg.size(), one_vm);
    EXPECT_TRUE(reg.has("kvm.vm0.exits"));
    EXPECT_TRUE(reg.has("kvm.vm1.exits"));
    EXPECT_TRUE(reg.has("gapped.vm1.syncRpcServed"));
    // ~Testbed destroys the VMs (and their StatGroups) before the
    // simulation that owns the registry; the ASan build verifies no
    // entry dangles through that window.
}

TEST(Observability, TracingDoesNotPerturbTheSimulation)
{
    const RunResult off1 = gappedRun(false);
    const RunResult on = gappedRun(true);
    const RunResult off2 = gappedRun(false);

    // Same seed, same config: identical with tracing on, off, or on
    // again — tracing is pure observation.
    EXPECT_TRUE(off1 == off2) << "baseline run is not deterministic";
    EXPECT_TRUE(off1 == on) << "tracing perturbed the simulation";

    // And the run did real work, so the equality is meaningful.
    EXPECT_GT(off1.rmiCalls, 0u);
    EXPECT_GT(off1.kvmExits, 0u);
    EXPECT_GT(off1.doorbellRings, 0u);
    EXPECT_GT(off1.syncRpcServed, 0u);
}

TEST(Observability, TraceCapturesTheCoreGappedProtocol)
{
    const RunResult on = gappedRun(true);
    ASSERT_FALSE(on.traceJson.empty());

    // Every leg of the paper's transport shows up: REC execution
    // windows, the SyncRpc short-call protocol, the exit doorbell, the
    // IPIs underneath it, and the bring-up hotplug.
    for (const char* name :
         {"rec-run", "syncrpc-post", "syncrpc-pickup",
          "syncrpc-response", "doorbell-ring", "doorbell-wake",
          "ipi-send", "ipi-deliver", "hotplug-offline"}) {
        EXPECT_NE(on.traceJson.find(std::string("\"name\": \"") + name +
                                    "\""),
                  std::string::npos)
            << "tracepoint never fired: " << name;
    }
    // rec-run carries its ExitReason as an argument.
    EXPECT_NE(on.traceJson.find("\"args\": {\"exit\": "),
              std::string::npos);
}

TEST(Observability, StatsDumpCoversTheWholeTestbed)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    VmInstance& vm = bed.createVm("vm0", 3, vcfg);
    for (int i = 0; i < vm.numVcpus(); ++i) {
        vm.vcpu(i).startGuest(
            "w", faultComputeShutdown(bed, vm.vcpu(i), 2, 1 * msec));
    }
    bed.spawnStart();
    bed.run();

    const std::string text = bed.sim().stats().dumpText();
    EXPECT_NE(text.find("rmm.exitsToHost"), std::string::npos);
    EXPECT_NE(text.find("gapped.vm0.runToRun"), std::string::npos);
    const std::string json = bed.sim().stats().dumpJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"latency\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"value\""), std::string::npos);
}

TEST(Observability, UnwritableOutputSetsWriteFailed)
{
    // A full disk under --stats or --trace must reach the harness,
    // which fails the run on it; a good path must not.
    const std::string good = testing::TempDir() + "observability_out";
    for (const char* path : {"/dev/full", good.c_str()}) {
        for (const bool stats : {true, false}) {
            bool failed = false;
            {
                Testbed::Config cfg;
                cfg.numCores = 4;
                (stats ? cfg.run.statsPath : cfg.run.tracePath) = path;
                cfg.run.writeFailed = &failed;
                Testbed bed(cfg);
            }
            EXPECT_EQ(failed, path != good.c_str())
                << path << (stats ? " as --stats" : " as --trace");
        }
    }
}
