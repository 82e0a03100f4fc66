/**
 * @file
 * Failure injection: a hostile hypervisor throws everything it legally
 * can at a running core-gapped CVM — wrong-core dispatch storms,
 * forged interrupt injections, kick floods, and bogus RMI sequences —
 * and the monitor's checks must hold while the guest keeps making
 * progress (denial of service is out of scope, section 2.4, but
 * integrity and confidentiality controls are not).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/gapped_vm.hh"
#include "sim/simulation.hh"
#include "workloads/coremark.hh"

namespace sim = cg::sim;
namespace hw = cg::hw;
namespace guest = cg::guest;
namespace rmm = cg::rmm;
using namespace cg::workloads;
using sim::Proc;
using sim::Tick;
using sim::Compute;
using sim::msec;
using sim::usec;

namespace {

Proc<void>
computeAndShutdown(Testbed& bed, guest::VCpu& v, Tick work)
{
    co_await bed.started().wait();
    co_await Compute{work};
    co_await v.shutdown();
}

/** A malicious host thread hammering REC enter on the wrong cores. */
Proc<void>
wrongCoreStorm(Testbed& bed, int realm, int attempts, int& rejected)
{
    co_await bed.started().wait();
    // The binding is created by the FIRST legitimate dispatch; attack
    // once it exists (before that, placement is the host's to choose,
    // by design — wherever the vCPU first runs becomes dedicated).
    co_await sim::Delay{5 * msec};
    for (int i = 0; i < attempts; ++i) {
        // Probe every core except the bound one (which is 1).
        for (sim::CoreId c : {0, 2, 3}) {
            const rmm::RmiStatus s =
                bed.rmm().recEnterCheck(realm, 0, c);
            if (s != rmm::RmiStatus::Success)
                ++rejected;
        }
        co_await Compute{20 * usec};
    }
}

/** Forged injections: the host claims the timer fired, repeatedly. */
Proc<void>
forgedTickStorm(Testbed& bed, VmInstance& vm, int count)
{
    co_await bed.started().wait();
    for (int i = 0; i < count; ++i) {
        vm.kvm->queueInjection(0, hw::vtimerPpi);
        vm.kvm->queueInjection(0, hw::sgiBase + 1);
        co_await sim::Delay{200 * usec};
    }
}

} // namespace

TEST(HostileHost, WrongCoreStormNeverLandsAndGuestUnharmed)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("target", 2); // vCPU on core 1
    vm.vcpu(0).startGuest(
        "w", computeAndShutdown(bed, vm.vcpu(0), 100 * msec));
    int rejected = 0;
    bed.sim().spawn("attacker",
                    wrongCoreStorm(bed, vm.kvm->realmId(), 200,
                                   rejected));
    bed.spawnStart();
    bed.run(10 * sim::sec);
    EXPECT_TRUE(vm.kvm->shutdownGate().isOpen());
    // Every single misplaced dispatch check failed closed.
    EXPECT_EQ(rejected, 600);
    // And the guest's progress was exactly its work, undisturbed.
    EXPECT_GE(vm.vcpu(0).guestCpuTime, 100 * msec);
    EXPECT_LT(vm.vcpu(0).guestCpuTime, 102 * msec);
}

TEST(HostileHost, ForgedDelegatedInterruptsAreFiltered)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped; // delegation on
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0; // no genuine ticks: any tick would be forged
    VmInstance& vm = bed.createVm("target", 2, vcfg);
    vm.vcpu(0).startGuest(
        "w", computeAndShutdown(bed, vm.vcpu(0), 50 * msec));
    bed.sim().spawn("forger", forgedTickStorm(bed, vm, 50));
    bed.spawnStart();
    bed.run(10 * sim::sec);
    EXPECT_TRUE(vm.kvm->shutdownGate().isOpen());
    // The monitor owns the delegated ids: every forgery was dropped.
    EXPECT_EQ(vm.vcpu(0).ticksHandled.value(), 0u);
    EXPECT_GE(bed.rmm().stats().filteredInjections.value(), 90u);
}

TEST(HostileHost, WithoutDelegationHostInjectionsAreItsBusiness)
{
    // Baseline semantics check: without delegation the host manages
    // all virtual interrupts, so its injections do reach the guest.
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGappedNoDelegation;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("target", 2, vcfg);
    vm.vcpu(0).startGuest(
        "w", computeAndShutdown(bed, vm.vcpu(0), 30 * msec));
    bed.sim().spawn("injector", forgedTickStorm(bed, vm, 10));
    bed.spawnStart();
    bed.run(10 * sim::sec);
    EXPECT_TRUE(vm.kvm->shutdownGate().isOpen());
    EXPECT_GT(vm.vcpu(0).virqsHandled.value(), 0u);
    EXPECT_EQ(bed.rmm().stats().filteredInjections.value(), 0u);
}

TEST(HostileHost, KickFloodOnlySlowsTheGuest)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("target", 2, vcfg);
    vm.vcpu(0).startGuest(
        "w", computeAndShutdown(bed, vm.vcpu(0), 50 * msec));
    // 500 gratuitous kicks: each forces an exit (a DoS vector the
    // threat model accepts), but integrity holds and work completes.
    struct Helper {
        static Proc<void>
        kicker(Testbed& bed, VmInstance& vm)
        {
            co_await bed.started().wait();
            for (int i = 0; i < 500; ++i) {
                bed.machine().gic().sendSgi(vm.guestCores[0], 15);
                co_await sim::Delay{150 * usec};
            }
        }
    };
    bed.sim().spawn("kicker", Helper::kicker(bed, vm));
    bed.spawnStart();
    bed.run(30 * sim::sec);
    EXPECT_TRUE(vm.kvm->shutdownGate().isOpen());
    EXPECT_GE(vm.vcpu(0).guestCpuTime, 50 * msec);
    // The kicks really did force exits (they are visible, not hidden).
    EXPECT_GT(bed.rmm().stats().exitsToHost.value(), 100u);
}

TEST(HostileHost, BogusRmiSequencesFailClosed)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("target", 2);
    rmm::Rmm& r = bed.rmm();
    const int realm = vm.kvm->realmId();
    // Destroy a realm with live RECs: refused.
    EXPECT_EQ(r.realmDestroy(realm), rmm::RmiStatus::BadState);
    // Activate twice: refused.
    EXPECT_EQ(r.realmActivate(realm), rmm::RmiStatus::BadState);
    // Create RECs after activation: refused.
    int rec = -1;
    EXPECT_EQ(r.recCreate(realm, 0xdead000, rec),
              rmm::RmiStatus::BadState);
    // Steal a data granule back while assigned: refused, and it stays
    // host-inaccessible (invariant I4).
    rmm::PhysAddr some_data = 0;
    for (const auto& [addr, state] : r.granules().owned(realm)) {
        if (state == rmm::GranuleState::Data)
            some_data = addr;
    }
    ASSERT_NE(some_data, 0u);
    EXPECT_EQ(r.granuleUndelegate(some_data), rmm::RmiStatus::BadState);
    EXPECT_FALSE(r.granules().hostAccessible(some_data));
    // Attest a nonexistent realm: refused.
    rmm::AttestationToken t;
    EXPECT_EQ(r.attest(realm + 7, 1, t), rmm::RmiStatus::BadState);
}
