/**
 * @file
 * End-to-end integration tests for core-gapped confidential VMs: the
 * full bring-up (hotplug, monitor handoff, RPC channels, wake-up
 * thread), execution, interrupt delegation, security invariants
 * (I1/I2), and teardown (I6).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/gapped_vm.hh"
#include "core/planner.hh"
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
using sim::usec;

namespace {

Proc<void>
computeAndShutdown(VCpu& v, Tick work)
{
    co_await Compute{work};
    co_await v.shutdown();
}

Proc<void>
faultComputeShutdown(VCpu& v, int pages, Tick work)
{
    for (int i = 0; i < pages; ++i)
        co_await v.pageFault(0x50000000ull +
                             static_cast<std::uint64_t>(i) * 4096);
    co_await Compute{work};
    co_await v.shutdown();
}

Proc<void>
startGapped(GappedVm& g)
{
    co_await g.start();
}

Proc<void>
teardownGapped(GappedVm& g, bool& done)
{
    co_await g.teardown();
    done = true;
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
    boot(int cores, guest::VmConfig vcfg, GappedVmConfig gcfg,
         cg::rmm::RmmConfig rcfg = defaultRmmConfig())
    {
        hw::MachineConfig mcfg;
        mcfg.numCores = cores;
        machine = std::make_unique<hw::Machine>(sim, mcfg);
        kernel = std::make_unique<host::Kernel>(*machine);
        kicks = std::make_unique<vmm::KickBroker>(*kernel);
        rmm = std::make_unique<cg::rmm::Rmm>(*machine, rcfg);
        doorbell = std::make_unique<ExitDoorbell>(*kernel);
        vm = std::make_unique<guest::Vm>(*machine, vcfg,
                                         sim::firstVmDomain);
        vmm::KvmConfig kcfg;
        kcfg.mode = vmm::VmMode::SharedCoreCvm;
        kvm = std::make_unique<vmm::KvmVm>(*kernel, *vm, *kicks, kcfg);
        const int realm = vmm::createRealmFor(*rmm, *kernel, *vm);
        kvm->attachRealm(*rmm, realm);
        gapped = std::make_unique<GappedVm>(*kvm, *doorbell, gcfg);
    }

    static cg::rmm::RmmConfig
    defaultRmmConfig()
    {
        cg::rmm::RmmConfig r;
        r.coreGapped = true;
        r.delegateInterrupts = true;
        r.localWfi = true;
        return r;
    }
};

struct GappedFixture : ::testing::Test, Rig {};

} // namespace

TEST_F(GappedFixture, RunsCpuWorkloadToShutdown)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1, 2};
    gcfg.hostCores = host::CpuMask::single(0);
    boot(4, vcfg, gcfg);
    for (int i = 0; i < 2; ++i) {
        vm->vcpu(i).startGuest(
            "w", computeAndShutdown(vm->vcpu(i), 80 * msec));
    }
    sim.spawn("starter", startGapped(*gapped));
    sim.run(5 * sim::sec);
    EXPECT_TRUE(gapped->shutdownGate().isOpen());
    // Guest work completed despite hotplug etc.
    EXPECT_GE(vm->vcpu(0).guestCpuTime, 80 * msec);
    EXPECT_GE(vm->vcpu(1).guestCpuTime, 80 * msec);
    // The dedicated cores went offline and stayed offline.
    EXPECT_FALSE(kernel->isOnline(1));
    EXPECT_FALSE(kernel->isOnline(2));
    // The doorbell carried exit notifications.
    EXPECT_GT(doorbell->rings(), 0u);
}

TEST_F(GappedFixture, DelegationSuppressesInterruptExits)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1};
    boot(2, vcfg, gcfg);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 200 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.run(5 * sim::sec);
    ASSERT_TRUE(gapped->shutdownGate().isOpen());
    // 200ms at 250 Hz = 50 ticks; delegated => ~zero irq exits to host.
    EXPECT_GE(rmm->stats().delegatedTimerEvents.value(), 80u);
    EXPECT_LE(rmm->stats().irqRelatedExitsToHost.value(), 2u);
    EXPECT_EQ(vm->vcpu(0).ticksHandled.value(), 50u);
}

TEST_F(GappedFixture, WithoutDelegationTimerExitsReachHost)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1};
    cg::rmm::RmmConfig rcfg;
    rcfg.coreGapped = true;
    rcfg.delegateInterrupts = false;
    rcfg.localWfi = true;
    boot(2, vcfg, gcfg, rcfg);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 200 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.run(5 * sim::sec);
    ASSERT_TRUE(gapped->shutdownGate().isOpen());
    // Every tick now costs two host exits (table 4's contrast).
    EXPECT_GE(rmm->stats().irqRelatedExitsToHost.value(), 90u);
    EXPECT_EQ(rmm->stats().delegatedTimerEvents.value(), 0u);
}

TEST_F(GappedFixture, BindingEnforcedDuringRun)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    GappedVmConfig gcfg;
    gcfg.guestCores = {2};
    boot(4, vcfg, gcfg);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 100 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.runFor(50 * msec);
    // Invariant I1: the REC is bound to its dedicated core.
    EXPECT_EQ(rmm->recBinding(kvm->realmId(), 0), 2);
    EXPECT_EQ(rmm->dedicatedOwner(2), kvm->realmId());
    // Invariant I3: a dispatch anywhere else is rejected.
    EXPECT_EQ(rmm->recEnterCheck(kvm->realmId(), 0, 3),
              cg::rmm::RmiStatus::WrongCore);
    sim.run(5 * sim::sec);
    EXPECT_TRUE(gapped->shutdownGate().isOpen());
}

TEST_F(GappedFixture, OnlyTrustedDomainsTouchDedicatedCore)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1};
    boot(2, vcfg, gcfg);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 100 * msec));
    sim.spawn("starter", startGapped(*gapped));
    // Invariant I2: sample the dedicated core's occupant while the
    // CVM runs — only the monitor or the guest domain may appear.
    bool saw_guest = false;
    for (int i = 0; i < 40; ++i) {
        sim.runFor(3 * msec);
        const sim::DomainId occ = machine->core(1).occupant();
        if (gapped->shutdownGate().isOpen())
            break;
        if (sim.now() > 40 * msec) { // past bring-up
            EXPECT_TRUE(occ == sim::monitorDomain ||
                        occ == vm->domain())
                << "unexpected occupant " << occ;
            saw_guest = saw_guest || occ == vm->domain();
        }
    }
    EXPECT_TRUE(saw_guest);
    sim.run(5 * sim::sec);
}

TEST_F(GappedFixture, PageFaultsServedOverSyncRpc)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    vcfg.tickPeriod = 0;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1};
    boot(2, vcfg, gcfg);
    vm->vcpu(0).startGuest(
        "w", faultComputeShutdown(vm->vcpu(0), 8, 10 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.run(5 * sim::sec);
    ASSERT_TRUE(gapped->shutdownGate().isOpen());
    EXPECT_EQ(kvm->stats().pageFaultExits.value(), 8u);
    // Each fault needed granule-delegate + map RMI calls via RPC.
    EXPECT_GT(gapped->syncRpc().callsServed(), 8u);
}

TEST_F(GappedFixture, TeardownRestoresCores)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1, 2};
    boot(4, vcfg, gcfg);
    for (int i = 0; i < 2; ++i) {
        vm->vcpu(i).startGuest(
            "w", computeAndShutdown(vm->vcpu(i), 20 * msec));
    }
    sim.spawn("starter", startGapped(*gapped));
    sim.run(5 * sim::sec);
    ASSERT_TRUE(gapped->shutdownGate().isOpen());
    bool torn = false;
    sim.spawn("teardown", teardownGapped(*gapped, torn));
    sim.runFor(5 * sim::sec);
    ASSERT_TRUE(torn);
    // Invariant I6: cores are online and schedulable again.
    EXPECT_TRUE(kernel->isOnline(1));
    EXPECT_TRUE(kernel->isOnline(2));
    EXPECT_EQ(machine->core(1).world(), hw::World::Normal);
    EXPECT_EQ(rmm->dedicatedOwner(1), -1);
    EXPECT_EQ(rmm->realm(kvm->realmId()), nullptr);
}

TEST_F(GappedFixture, BusyWaitVariantAlsoCompletes)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1, 2};
    gcfg.busyWaitRun = true;
    boot(4, vcfg, gcfg);
    for (int i = 0; i < 2; ++i) {
        vm->vcpu(i).startGuest(
            "w", computeAndShutdown(vm->vcpu(i), 50 * msec));
    }
    sim.spawn("starter", startGapped(*gapped));
    sim.run(10 * sim::sec);
    EXPECT_TRUE(gapped->shutdownGate().isOpen());
}

TEST_F(GappedFixture, RunToRunLatencyIsMicroseconds)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    GappedVmConfig gcfg;
    gcfg.guestCores = {1};
    cg::rmm::RmmConfig rcfg;
    rcfg.coreGapped = true;
    rcfg.delegateInterrupts = false; // force frequent exits
    rcfg.localWfi = true;
    boot(2, vcfg, gcfg, rcfg);
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 100 * msec));
    sim.spawn("starter", startGapped(*gapped));
    sim.run(5 * sim::sec);
    ASSERT_TRUE(gapped->shutdownGate().isOpen());
    ASSERT_GT(gapped->runToRun().count(), 10u);
    // Fig. 6 reports ~26 us run-to-run on an uncontended host core;
    // accept a generous band around that.
    EXPECT_GT(gapped->runToRun().meanUs(), 1.5);
    EXPECT_LT(gapped->runToRun().meanUs(), 120.0);
}
