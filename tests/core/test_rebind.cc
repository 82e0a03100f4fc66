/**
 * @file
 * Tests for coarse-timescale vCPU-to-core rebinding — the future work
 * the paper defers in section 3, implemented here as an extension:
 * the monitor validates the move, rate-limits it, scrubs the old
 * core's residue, and the runner re-plumbs the dedicated core without
 * losing guest work.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/gapped_vm.hh"
#include "sim/simulation.hh"

namespace hw = cg::hw;
namespace sim = cg::sim;
namespace host = cg::host;
namespace guest = cg::guest;
namespace vmm = cg::vmm;
using namespace cg::core;
using guest::VCpu;
using sim::Proc;
using sim::Tick;
using sim::Compute;
using sim::msec;

namespace {

Proc<void>
computeAndShutdown(VCpu& v, Tick work)
{
    co_await Compute{work};
    co_await v.shutdown();
}

Proc<void>
startGapped(GappedVm& g)
{
    co_await g.start();
}

Proc<void>
doRebind(GappedVm& g, int idx, sim::CoreId core, int& result)
{
    const bool ok = co_await g.rebindVcpu(idx, core);
    result = ok ? 1 : 0;
}

struct Rig {
    sim::Simulation sim;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<host::Kernel> kernel;
    std::unique_ptr<vmm::KickBroker> kicks;
    std::unique_ptr<cg::rmm::Rmm> rmm;
    std::unique_ptr<ExitDoorbell> doorbell;
    std::unique_ptr<guest::Vm> vm;
    std::unique_ptr<vmm::KvmVm> kvm;
    std::unique_ptr<GappedVm> gapped;

    void
    boot(int cores, Tick min_rebind_interval = 0)
    {
        hw::MachineConfig mcfg;
        mcfg.numCores = cores;
        machine = std::make_unique<hw::Machine>(sim, mcfg);
        kernel = std::make_unique<host::Kernel>(*machine);
        kicks = std::make_unique<vmm::KickBroker>(*kernel);
        cg::rmm::RmmConfig rcfg;
        rcfg.coreGapped = true;
        rcfg.delegateInterrupts = true;
        rcfg.localWfi = true;
        rcfg.minRebindInterval = min_rebind_interval;
        rmm = std::make_unique<cg::rmm::Rmm>(*machine, rcfg);
        doorbell = std::make_unique<ExitDoorbell>(*kernel);
        guest::VmConfig vcfg;
        vcfg.numVcpus = 1;
        vm = std::make_unique<guest::Vm>(*machine, vcfg,
                                         sim::firstVmDomain);
        vmm::KvmConfig kcfg;
        kcfg.mode = vmm::VmMode::SharedCoreCvm;
        kvm = std::make_unique<vmm::KvmVm>(*kernel, *vm, *kicks, kcfg);
        kvm->attachRealm(*rmm, vmm::createRealmFor(*rmm, *kernel, *vm));
        GappedVmConfig gcfg;
        gcfg.guestCores = {1};
        gcfg.hostCores = host::CpuMask::single(0);
        gapped = std::make_unique<GappedVm>(*kvm, *doorbell, gcfg);
    }
};

struct RebindFixture : ::testing::Test, Rig {};

} // namespace

TEST_F(RebindFixture, MovesExecutionAndPreservesWork)
{
    boot(4);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 300 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.runFor(100 * msec);
    ASSERT_EQ(rmm->recBinding(kvm->realmId(), 0), 1);

    int ok = -1;
    sim.spawn("rebind", doRebind(*gapped, 0, 2, ok));
    sim.runFor(100 * msec);
    EXPECT_EQ(ok, 1);
    // The binding moved, the old core was released and is back online
    // for the host, and the new core is offline/dedicated.
    EXPECT_EQ(rmm->recBinding(kvm->realmId(), 0), 2);
    EXPECT_EQ(gapped->coreOf(0), 2);
    EXPECT_EQ(rmm->dedicatedOwner(1), -1);
    EXPECT_EQ(rmm->dedicatedOwner(2), kvm->realmId());
    EXPECT_TRUE(kernel->isOnline(1));
    EXPECT_FALSE(kernel->isOnline(2));
    // The old core holds no guest residue (the monitor scrubbed it).
    for (const hw::TaggedStructure* s : machine->core(1).uarch().all())
        EXPECT_EQ(s->entriesOf(vm->domain()), 0u) << s->name();
    // Guest work survives the move and completes.
    sim.run(30 * sim::sec);
    EXPECT_TRUE(gapped->shutdownGate().isOpen());
    EXPECT_GE(vm->vcpu(0).guestCpuTime, 300 * msec);
    EXPECT_EQ(rmm->stats().rebinds.value(), 1u);
}

TEST_F(RebindFixture, RateLimitEnforcesCoarseTimescales)
{
    boot(6, /*min_rebind_interval=*/10 * sim::sec);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 2 * sim::sec));
    sim.spawn("starter", startGapped(*gapped));
    sim.runFor(100 * msec);

    int first = -1;
    sim.spawn("r1", doRebind(*gapped, 0, 2, first));
    sim.runFor(100 * msec);
    ASSERT_EQ(first, 1);
    // An immediate second move is refused by the monitor's limiter
    // (Busy, counted), but the control plane does not drop it: it
    // holds the new core, backs off until the window opens, and
    // retries — so the rebind eventually lands.
    int second = -1;
    sim.spawn("r2", doRebind(*gapped, 0, 3, second));
    sim.runFor(200 * msec);
    // Still inside the rate-limit window: nothing moved yet.
    EXPECT_EQ(second, -1);
    EXPECT_EQ(rmm->recBinding(kvm->realmId(), 0), 2);
    EXPECT_GE(rmm->stats().rebindsRefused.value(), 1u);
    // After the window opens the retry succeeds.
    sim.runFor(11 * sim::sec);
    EXPECT_EQ(second, 1);
    EXPECT_EQ(rmm->recBinding(kvm->realmId(), 0), 3);
    EXPECT_GE(gapped->rebindRetries(), 1u);
    EXPECT_TRUE(kernel->isOnline(2)); // old core back with the host
    // The guest keeps running across the backed-off move.
    sim.run(40 * sim::sec);
    EXPECT_TRUE(gapped->shutdownGate().isOpen());
}

TEST_F(RebindFixture, MigrationBusyIsNotMistakenForRateLimit)
{
    // The retry loop only backs off when the limiter refused the move
    // (rebindAllowedAt in the future). A Busy from an in-flight
    // migration reports allowed-at 0, so the control plane rolls back
    // instead of spinning on a refusal that backoff cannot cure.
    boot(6, /*min_rebind_interval=*/10 * sim::sec);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 2 * sim::sec));
    sim.spawn("starter", startGapped(*gapped));
    sim.runFor(100 * msec);

    int susp = -1;
    sim.spawn("susp", [](GappedVm& g, int& out) -> Proc<void> {
        out = (co_await g.trySuspend(GappedVm::parkDeadline)) ? 1 : 0;
    }(*gapped, susp));
    sim.runFor(100 * msec);
    ASSERT_EQ(susp, 1);
    ASSERT_EQ(rmm->migratePrepare(kvm->realmId()),
              cg::rmm::RmiStatus::Success);

    const auto refused_before = rmm->stats().rebindsRefused.value();
    EXPECT_EQ(rmm->recRebind(kvm->realmId(), 0, 3),
              cg::rmm::RmiStatus::Busy);
    EXPECT_EQ(rmm->stats().rebindsRefused.value(), refused_before + 1);
    // Not the limiter: the window is open (no rebind ever happened).
    EXPECT_EQ(rmm->rebindAllowedAt(kvm->realmId(), 0), 0u);

    ASSERT_EQ(rmm->migrateAbort(kvm->realmId()),
              cg::rmm::RmiStatus::Success);
    gapped->resume();
    sim.run(30 * sim::sec);
    EXPECT_TRUE(gapped->shutdownGate().isOpen());
}

TEST_F(RebindFixture, RefusesAnotherTenantsCore)
{
    boot(6);
    // A second realm dedicates core 3.
    guest::VmConfig vcfg2;
    vcfg2.numVcpus = 1;
    vcfg2.name = "other";
    guest::Vm vm2(*machine, vcfg2, sim::firstVmDomain + 1);
    vmm::KvmConfig kcfg2;
    kcfg2.mode = vmm::VmMode::SharedCoreCvm;
    vmm::KvmVm kvm2(*kernel, vm2, *kicks, kcfg2);
    kvm2.attachRealm(*rmm, vmm::createRealmFor(*rmm, *kernel, vm2));
    GappedVmConfig gcfg2;
    gcfg2.guestCores = {3};
    gcfg2.hostCores = host::CpuMask::single(0);
    GappedVm gapped2(kvm2, *doorbell, gcfg2);

    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 500 * msec));
    vm2.vcpu(0).startGuest(
        "w2", computeAndShutdown(vm2.vcpu(0), 500 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.spawn("starter2", startGapped(gapped2));
    sim.runFor(100 * msec);

    // Direct monitor-level check: core 3 belongs to the other realm.
    EXPECT_EQ(rmm->recRebind(kvm->realmId(), 0, 3),
              cg::rmm::RmiStatus::WrongCore);
    EXPECT_EQ(rmm->recBinding(kvm->realmId(), 0), 1);
    sim.run(30 * sim::sec);
}

TEST_F(RebindFixture, MonitorLevelValidation)
{
    boot(4);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 200 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.runFor(50 * msec);
    // Same core: BadArgs. Out of range: BadArgs. Unknown REC: BadState.
    EXPECT_EQ(rmm->recRebind(kvm->realmId(), 0, 1),
              cg::rmm::RmiStatus::BadArgs);
    EXPECT_EQ(rmm->recRebind(kvm->realmId(), 0, 99),
              cg::rmm::RmiStatus::BadArgs);
    EXPECT_EQ(rmm->recRebind(kvm->realmId(), 7, 2),
              cg::rmm::RmiStatus::BadState);
    sim.run(30 * sim::sec);
}
