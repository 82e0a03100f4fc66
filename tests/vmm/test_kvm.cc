/**
 * @file
 * Integration tests for the KVM/VMM layer: shared-core VMs end to end,
 * virtio and SR-IOV data paths, virtual IPIs, shared-core CVMs, and
 * guest power-off (PSCI CPU_OFF vs SYSTEM_OFF) under every runner.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "vmm/kvm.hh"
#include "vmm/sriov.hh"
#include "vmm/virtio.hh"
#include "vmm/virtio_mq.hh"
#include "workloads/testbed.hh"

namespace hw = cg::hw;
namespace sim = cg::sim;
namespace host = cg::host;
namespace guest = cg::guest;
using namespace cg::vmm;
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
blkIoAndShutdown(VCpu& v, VirtioBlk& blk, int n, std::uint64_t bytes,
                 int& completed)
{
    for (int i = 0; i < n; ++i) {
        co_await blk.guestIo(v, bytes, i % 2 == 0);
        ++completed;
    }
    co_await v.shutdown();
}

Proc<void>
netPingAndShutdown(VCpu& v, MqVirtioNet& net, int peer_port, int n,
                   int& echoes, Tick& last_rtt, sim::Simulation& s)
{
    for (int i = 0; i < n; ++i) {
        const Tick t0 = s.now();
        co_await net.guestSend(v, 1500, peer_port,
                               static_cast<std::uint64_t>(i));
        Packet reply = co_await net.guestRecv(v, 0);
        last_rtt = s.now() - t0;
        if (reply.cookie == static_cast<std::uint64_t>(i))
            ++echoes;
    }
    co_await v.shutdown();
}

Proc<void>
sriovPingAndShutdown(VCpu& v, SriovNic& nic, int peer_port, int n,
                     int& echoes, Tick& last_rtt, sim::Simulation& s)
{
    for (int i = 0; i < n; ++i) {
        const Tick t0 = s.now();
        co_await nic.guestSend(v, 1500, peer_port,
                               static_cast<std::uint64_t>(i));
        Packet reply = co_await nic.guestRecv(v);
        last_rtt = s.now() - t0;
        if (reply.cookie == static_cast<std::uint64_t>(i))
            ++echoes;
    }
    co_await v.shutdown();
}

Proc<void>
vipiSender(VCpu& v, int target, int n, bool& peer_acked, int& acks)
{
    for (int i = 0; i < n; ++i) {
        peer_acked = false;
        co_await v.sendVIpi(target);
        // Spin (in guest time) until the peer's handler runs.
        while (!peer_acked)
            co_await Compute{1 * usec};
        ++acks;
    }
    co_await v.shutdown();
}

Proc<void>
idleForever(VCpu& v)
{
    for (;;)
        co_await v.idle();
}

Proc<void>
faultTouchAndShutdown(VCpu& v, int pages)
{
    for (int i = 0; i < pages; ++i) {
        co_await v.pageFault((0x40000000ull) +
                             static_cast<std::uint64_t>(i) * 4096);
        co_await Compute{50 * usec};
    }
    co_await v.shutdown();
}

struct Rig {
    sim::Simulation sim;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<host::Kernel> kernel;
    std::unique_ptr<KickBroker> kicks;
    std::unique_ptr<guest::Vm> vm;
    std::unique_ptr<KvmVm> kvm;
    std::unique_ptr<cg::rmm::Rmm> rmm;

    void
    boot(int cores, guest::VmConfig vcfg, KvmConfig kcfg)
    {
        hw::MachineConfig mcfg;
        mcfg.numCores = cores;
        machine = std::make_unique<hw::Machine>(sim, mcfg);
        kernel = std::make_unique<host::Kernel>(*machine);
        kicks = std::make_unique<KickBroker>(*kernel);
        vm = std::make_unique<guest::Vm>(*machine, vcfg,
                                         sim::firstVmDomain);
        kvm = std::make_unique<KvmVm>(*kernel, *vm, *kicks, kcfg);
    }

    void
    makeCvm()
    {
        rmm = std::make_unique<cg::rmm::Rmm>(*machine,
                                             cg::rmm::RmmConfig{});
        const int realm = createRealmFor(*rmm, *kernel, *vm);
        kvm->attachRealm(*rmm, realm);
    }
};

struct KvmFixture : ::testing::Test, Rig {};

} // namespace

TEST_F(KvmFixture, SharedVmRunsToShutdown)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    boot(4, vcfg, KvmConfig{});
    for (int i = 0; i < 2; ++i) {
        vm->vcpu(i).startGuest(
            "w", computeAndShutdown(vm->vcpu(i), 50 * msec));
    }
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    // ~12 ticks per vCPU at 250 Hz over 50 ms: 2 exits per tick.
    EXPECT_GT(kvm->stats().exits.value(), 40u);
    EXPECT_GT(vm->vcpu(0).ticksHandled.value(), 8u);
    EXPECT_GE(vm->vcpu(0).guestCpuTime, 50 * msec);
}

TEST_F(KvmFixture, VirtioBlkRoundTrip)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    Disk disk(sim, Disk::Config{});
    VirtioBlk blk(*kvm, disk, VirtioBlk::Config{});
    int completed = 0;
    vm->vcpu(0).startGuest(
        "io", blkIoAndShutdown(vm->vcpu(0), blk, 8, 65536, completed));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_EQ(completed, 8);
    EXPECT_EQ(disk.opsCompleted(), 8u);
    EXPECT_GT(kvm->stats().mmioExits.value(), 0u);
}

TEST_F(KvmFixture, VirtioNetEchoThroughRemotePeer)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    NetworkFabric fab(sim, NetworkFabric::Config{});
    MqVirtioNet::Config ncfg;
    ncfg.numQueues = 1;
    ncfg.kickBatchLimit = 1;
    MqVirtioNet net(*kvm, fab, ncfg);
    // Remote echo endpoint: bounce every packet back.
    struct Echo {
        NetworkFabric* fab;
        int port = -1;
    };
    auto echo = std::make_shared<Echo>();
    echo->fab = &fab;
    echo->port = fab.attach([echo](const Packet& p) {
        Packet r = p;
        r.srcPort = echo->port;
        r.dstPort = p.srcPort;
        echo->fab->send(r);
    });
    int echoes = 0;
    Tick rtt = 0;
    vm->vcpu(0).startGuest(
        "ping", netPingAndShutdown(vm->vcpu(0), net, echo->port, 5,
                                   echoes, rtt, sim));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_EQ(echoes, 5);
    EXPECT_GT(net.txPackets(), 0u);
    EXPECT_GT(net.rxPackets(), 0u);
    // Emulated path: tens of microseconds round trip.
    EXPECT_GT(rtt, 15 * usec);
    EXPECT_LT(rtt, 500 * usec);
}

TEST_F(KvmFixture, SriovEchoFasterThanVirtio)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    NetworkFabric fab(sim, NetworkFabric::Config{});
    SriovNic nic(*kvm, fab, SriovNic::Config{});
    struct Echo {
        NetworkFabric* fab;
        int port = -1;
    };
    auto echo = std::make_shared<Echo>();
    echo->fab = &fab;
    echo->port = fab.attach([echo](const Packet& p) {
        Packet r = p;
        r.srcPort = echo->port;
        r.dstPort = p.srcPort;
        echo->fab->send(r);
    });
    int echoes = 0;
    Tick rtt = 0;
    vm->vcpu(0).startGuest(
        "ping", sriovPingAndShutdown(vm->vcpu(0), nic, echo->port, 5,
                                     echoes, rtt, sim));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_EQ(echoes, 5);
    // SR-IOV TX causes no MMIO exits at all.
    EXPECT_EQ(kvm->stats().mmioExits.value(), 0u);
    EXPECT_GT(rtt, 10 * usec);
    EXPECT_LT(rtt, 60 * usec);
}

TEST_F(KvmFixture, VirtualIpiBetweenVcpus)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    vcfg.tickPeriod = 0; // quiet
    boot(4, vcfg, KvmConfig{});
    bool peer_acked = false;
    int acks = 0;
    vm->vcpu(1).setVirqHandler(hw::sgiBase + 1,
                               [&peer_acked] { peer_acked = true; });
    vm->vcpu(0).startGuest(
        "sender", vipiSender(vm->vcpu(0), 1, 3, peer_acked, acks));
    vm->vcpu(1).startGuest("idler", idleForever(vm->vcpu(1)));
    kvm->start();
    sim.run(1 * sim::sec);
    EXPECT_EQ(acks, 3);
    EXPECT_GT(kvm->stats().injections.value(), 0u);
}

TEST_F(KvmFixture, SharedCvmRunsWithRealm)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    boot(2, vcfg, kcfg);
    makeCvm();
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 30 * msec));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_GT(rmm->stats().exitsToHost.value(), 10u);
    EXPECT_GT(rmm->stats().rmiCalls.value(), 10u);
}

TEST_F(KvmFixture, SharedCvmSlowerThanSharedVm)
{
    // Identical work; the CVM pays world switches + flushes per exit.
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 100 * msec));
    kvm->start();
    const Tick t_shared = sim.run();

    // Fresh simulation for the CVM variant.
    Rig cvm_fix;
    guest::VmConfig vcfg2;
    vcfg2.numVcpus = 1;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    cvm_fix.boot(2, vcfg2, kcfg);
    cvm_fix.makeCvm();
    cvm_fix.vm->vcpu(0).startGuest(
        "w", computeAndShutdown(cvm_fix.vm->vcpu(0), 100 * msec));
    cvm_fix.kvm->start();
    const Tick t_cvm = cvm_fix.sim.run();

    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_TRUE(cvm_fix.kvm->shutdownGate().isOpen());
    EXPECT_GT(t_cvm, t_shared);
}

TEST_F(KvmFixture, CvmPageFaultsPopulateRtt)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    vcfg.tickPeriod = 0;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    boot(2, vcfg, kcfg);
    makeCvm();
    vm->vcpu(0).startGuest(
        "toucher", faultTouchAndShutdown(vm->vcpu(0), 10));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_EQ(kvm->stats().pageFaultExits.value(), 10u);
    cg::rmm::Realm* r = rmm->realm(kvm->realmId());
    ASSERT_NE(r, nullptr);
    // 64 boot pages + 10 faulted pages.
    EXPECT_EQ(r->rtt.mappedPages(), 74u);
}

TEST_F(KvmFixture, CvmPageFaultGiveUpHandsItsGranuleBack)
{
    // The first fault's delegate succeeds (RMI query 1); every attempt
    // of its level-2 rttCreate then bounces Busy (queries 2-6), so the
    // fault gives up holding a delegated granule, which must go back
    // to the host rather than stay Delegated without an owner.
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    vcfg.tickPeriod = 0;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    boot(2, vcfg, kcfg);
    makeCvm();
    sim.faults().arm(1, sim::FaultPlan::parse(
                            "rmi-transient-error:nth=2;"
                            "rmi-transient-error:nth=3;"
                            "rmi-transient-error:nth=4;"
                            "rmi-transient-error:nth=5;"
                            "rmi-transient-error:nth=6"));
    vm->vcpu(0).startGuest(
        "toucher", faultTouchAndShutdown(vm->vcpu(0), 3));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_EQ(kvm->stats().rmiGiveUps.value(), 1u);
    const cg::rmm::GranuleTracker& g = rmm->granules();
    EXPECT_EQ(g.countInState(cg::rmm::GranuleState::Delegated), 0u);
    EXPECT_EQ(kernel->pagesInUse(), g.owned(kvm->realmId()).size());
}

// ------------------------------------------------- guest power-off (PSCI)

namespace {

using cg::workloads::RunMode;
using cg::workloads::Testbed;
using cg::workloads::VmInstance;

/** What a task saw just before it called shutdown(). */
struct ShutdownMark {
    Tick at = 0;
    std::vector<std::uint64_t> ticks;
    std::vector<bool> stopped;
};

Proc<void>
computeMarkAndShutdown(Testbed& bed, VmInstance& vm, int idx, Tick work,
                       ShutdownMark& mark)
{
    co_await bed.started().wait();
    co_await Compute{work};
    mark.at = bed.sim().now();
    for (int i = 0; i < vm.numVcpus(); ++i) {
        mark.ticks.push_back(vm.vcpu(i).ticksHandled.value());
        mark.stopped.push_back(vm.vcpu(i).stopped());
    }
    co_await vm.vcpu(idx).shutdown();
}

class PowerOff : public ::testing::TestWithParam<RunMode>
{
  protected:
    PowerOff()
    {
        Testbed::Config cfg;
        cfg.numCores = 8;
        cfg.mode = GetParam();
        bed = std::make_unique<Testbed>(cfg);
        // Four ticking vCPUs in every mode (a gapped VM's host core
        // counts as one of its physical cores).
        vm = &bed->createVm("po",
                             cg::workloads::isGapped(GetParam()) ? 5 : 4);
    }

    std::unique_ptr<Testbed> bed;
    VmInstance* vm = nullptr;
};

} // namespace

TEST_P(PowerOff, LastTaskPowersOffEveryVcpu)
{
    ASSERT_EQ(vm->numVcpus(), 4);
    ShutdownMark mark;
    vm->vcpu(0).startGuest(
        "w", computeMarkAndShutdown(*bed, *vm, 0, 20 * msec, mark));
    bed->spawnStart();
    // Far below any bench's horizon: without the power-off the idle
    // vCPUs' ticks would keep the queue busy until the limit.
    bed->run(200 * msec);
    ASSERT_GT(mark.at, 0u);
    EXPECT_TRUE(vm->kvm->shutdownGate().isOpen());
    EXPECT_TRUE(bed->sim().queue().empty());
    for (int i = 0; i < vm->numVcpus(); ++i) {
        VCpu& v = vm->vcpu(i);
        EXPECT_TRUE(v.stopped()) << "vcpu" << i;
        // The runner consumed the vCPU's Shutdown exit.
        EXPECT_FALSE(v.hasPendingEvent()) << "vcpu" << i;
        if (i == 0)
            continue;
        // The idle vCPUs were ticking, and stopped at the power-off.
        EXPECT_GT(mark.ticks[static_cast<size_t>(i)], 0u) << "vcpu" << i;
        EXPECT_EQ(v.ticksHandled.value(),
                  mark.ticks[static_cast<size_t>(i)])
            << "vcpu" << i;
    }
}

TEST_P(PowerOff, AnotherTaskKeepsTheVmRunning)
{
    ShutdownMark first, second;
    vm->vcpu(0).startGuest(
        "short", computeMarkAndShutdown(*bed, *vm, 0, 10 * msec, first));
    vm->vcpu(1).startGuest(
        "long", computeMarkAndShutdown(*bed, *vm, 1, 60 * msec, second));
    bed->spawnStart();
    bed->run(500 * msec);
    // The first shutdown stopped only its own vCPU (CPU_OFF): vCPU 1
    // finished its task, and the idle vCPUs kept ticking meanwhile.
    ASSERT_GT(first.at, 0u);
    ASSERT_GT(second.at, first.at);
    EXPECT_GE(second.at - first.at, 40 * msec);
    EXPECT_TRUE(second.stopped[0]);
    for (int i = 1; i < vm->numVcpus(); ++i)
        EXPECT_FALSE(second.stopped[static_cast<size_t>(i)]) << i;
    for (int i = 2; i < vm->numVcpus(); ++i) {
        const auto idx = static_cast<size_t>(i);
        EXPECT_GT(second.ticks[idx], first.ticks[idx] + 5) << i;
    }
    // The second, last task powered the VM off.
    EXPECT_TRUE(vm->kvm->shutdownGate().isOpen());
    EXPECT_TRUE(bed->sim().queue().empty());
    for (int i = 0; i < vm->numVcpus(); ++i)
        EXPECT_TRUE(vm->vcpu(i).stopped()) << i;
}

TEST_P(PowerOff, ParkedTaskNeverPowersOff)
{
    // Table 3's shape: the receiver idles forever on vCPU 1.
    ShutdownMark mark;
    vm->vcpu(0).startGuest(
        "sender", computeMarkAndShutdown(*bed, *vm, 0, 10 * msec, mark));
    vm->vcpu(1).startGuest("receiver", idleForever(vm->vcpu(1)));
    bed->spawnStart();
    const Tick horizon = 500 * msec;
    bed->run(horizon);
    ASSERT_GT(mark.at, 0u);
    EXPECT_TRUE(vm->vcpu(0).stopped());
    for (int i = 1; i < vm->numVcpus(); ++i)
        EXPECT_FALSE(vm->vcpu(i).stopped()) << i;
    EXPECT_FALSE(vm->kvm->shutdownGate().isOpen());
    EXPECT_FALSE(bed->sim().queue().empty());
    // Idle vCPUs tick all the way to the horizon (250 Hz).
    const std::uint64_t tail_ticks = (horizon - mark.at) / (4 * msec);
    for (int i = 2; i < vm->numVcpus(); ++i) {
        EXPECT_GE(vm->vcpu(i).ticksHandled.value(),
                  mark.ticks[static_cast<size_t>(i)] + tail_ticks - 2)
            << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PowerOff,
    ::testing::Values(RunMode::SharedCore, RunMode::SharedCoreCvm,
                      RunMode::CoreGapped, RunMode::CoreGappedBusyWait,
                      RunMode::CoreGappedNoDelegation),
    [](const ::testing::TestParamInfo<RunMode>& info) {
        std::string n = cg::workloads::runModeName(info.param);
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });
