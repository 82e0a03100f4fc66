/**
 * @file
 * Focused device-model tests: virtio kick suppression, NAPI interrupt
 * coalescing on both NIC paths, concurrent block requests, and the
 * TDX-style page-table ablation's RPC accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulation.hh"
#include "workloads/nic.hh"
#include "workloads/remote.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
namespace vmm = cg::vmm;
using guest::VCpu;
using sim::Proc;
using sim::Tick;
using sim::Compute;
using sim::msec;
using sim::usec;

namespace {

Proc<void>
burstSend(Testbed& bed, VCpu& v, vmm::MqVirtioNet& net, int n,
          int dst_port)
{
    co_await bed.started().wait();
    for (int i = 0; i < n; ++i)
        co_await net.guestSend(v, 1000, dst_port,
                               static_cast<std::uint64_t>(i));
    co_await v.shutdown();
}

Proc<void>
recvBurst(Testbed& bed, VCpu& v, vmm::MqVirtioNet& net, int n, int& got)
{
    co_await bed.started().wait();
    for (int i = 0; i < n; ++i) {
        (void)co_await net.guestRecv(v, 0);
        ++got;
    }
    co_await v.shutdown();
}

Proc<void>
parallelBlkIo(Testbed& bed, VCpu& v, vmm::VirtioBlk& blk, int n,
              int& done, int& finished, sim::Gate& all_done)
{
    co_await bed.started().wait();
    for (int i = 0; i < n; ++i) {
        co_await blk.guestIo(v, 4096, i % 2 == 0);
        ++done;
    }
    // vCPU 0 receives the completion interrupts: nobody may shut down
    // until everyone's I/O has completed (as a real guest kernel keeps
    // its boot CPU alive).
    if (++finished == 2)
        all_done.open();
    co_await all_done.wait();
    co_await v.shutdown();
}

Proc<void>
faultBurst(Testbed& bed, VCpu& v, int pages)
{
    co_await bed.started().wait();
    for (int i = 0; i < pages; ++i) {
        co_await v.pageFault(0x200000000ull +
                             static_cast<std::uint64_t>(i) *
                                 (2ull << 20));
    }
    co_await v.shutdown();
}

} // namespace

TEST(VirtioUnit, KickSuppressionBatchesDoorbells)
{
    // Every batch limit divides the 64-send burst, so no tail is left
    // for a flush the sender never makes.
    for (int limit : {1, 2, 4, 8}) {
        SCOPED_TRACE(::testing::Message() << "kickBatchLimit " << limit);
        Testbed::Config cfg;
        cfg.numCores = 4;
        cfg.mode = RunMode::SharedCore;
        Testbed bed(cfg);
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0;
        // One physical core shared by the vCPU thread and the I/O
        // thread: while the guest produces, the device cannot drain,
        // so the ring accumulates and EVENT_IDX suppression kicks in.
        std::vector<sim::CoreId> cores{0};
        cg::host::CpuMask mask = cg::host::CpuMask::single(0);
        VmInstance& vm = bed.createVmOn("v", cores, mask, 1, vcfg);
        bed.addMqNic(vm, {.queues = 1, .kickBatchLimit = limit});
        RemoteHost sink(bed.sim(), bed.fabric(),
                        bed.machine().costs().remoteStack);
        vm.vcpu(0).startGuest(
            "tx", burstSend(bed, vm.vcpu(0), *vm.mqnet, 64, sink.port()));
        bed.spawnStart();
        bed.run(5 * sim::sec);
        EXPECT_EQ(vm.mqnet->txPackets(), 64u);
        EXPECT_EQ(sink.received(), 64u);
        // EVENT_IDX-style suppression: a kick per device sleep, not
        // one per flush — the device never sleeps mid-burst here.
        EXPECT_LE(vm.kvm->stats().mmioExits.value(), 2u);
        EXPECT_GT(vm.kvm->stats().mmioExits.value(), 0u);
    }
}

TEST(VirtioUnit, NapiCoalescesRxInterrupts)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("v", 2, vcfg);
    bed.addMqNic(vm, {.queues = 1, .kickBatchLimit = 1});
    RemoteHost src(bed.sim(), bed.fabric(),
                   bed.machine().costs().remoteStack);
    int got = 0;
    vm.vcpu(0).startGuest(
        "rx", recvBurst(bed, vm.vcpu(0), *vm.mqnet, 64, got));
    // Blast 64 packets at the guest back-to-back once it is up.
    struct Helper {
        static Proc<void>
        blaster(Testbed& bed, RemoteHost& src, int port)
        {
            co_await bed.started().wait();
            co_await sim::Delay{1 * msec};
            for (int i = 0; i < 64; ++i)
                src.send(port, 1000, static_cast<std::uint64_t>(i));
        }
    };
    bed.sim().spawn("blaster",
                    Helper::blaster(bed, src, vm.mqnet->port()));
    bed.spawnStart();
    bed.run(5 * sim::sec);
    EXPECT_EQ(got, 64);
    // NAPI: the burst is delivered with only a handful of interrupts.
    EXPECT_LT(vm.kvm->stats().injections.value(), 20u);
    EXPECT_GT(vm.kvm->stats().injections.value(), 0u);
}

TEST(VirtioUnit, BlkRequestsFromTwoVcpusAllComplete)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0;
    VmInstance& vm = bed.createVm("v", 3, vcfg);
    bed.addVirtioBlk(vm);
    int done0 = 0, done1 = 0, finished = 0;
    sim::Gate all_done;
    vm.vcpu(0).startGuest(
        "io0", parallelBlkIo(bed, vm.vcpu(0), *vm.vblk, 12, done0,
                             finished, all_done));
    vm.vcpu(1).startGuest(
        "io1", parallelBlkIo(bed, vm.vcpu(1), *vm.vblk, 12, done1,
                             finished, all_done));
    bed.spawnStart();
    bed.run(10 * sim::sec);
    EXPECT_EQ(done0, 12);
    EXPECT_EQ(done1, 12);
    EXPECT_EQ(vm.vblk->requestsCompleted(), 24u);
    EXPECT_EQ(bed.disk().opsCompleted(), 24u);
}

TEST(VirtioUnit, TdxStyleHalvesFaultPathRpcs)
{
    auto run = [](bool tdx) {
        Testbed::Config cfg;
        cfg.numCores = 4;
        cfg.mode = RunMode::CoreGapped;
        Testbed bed(cfg);
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0;
        VmInstance& vm = bed.createVm("ft", 2, vcfg);
        vm.kvm->setTdxStylePageTables(tdx);
        vm.vcpu(0).startGuest("f", faultBurst(bed, vm.vcpu(0), 50));
        bed.spawnStart();
        bed.run(20 * sim::sec);
        EXPECT_TRUE(bed.allShutdown());
        return vm.gapped->syncRpc().callsServed();
    };
    const auto cca = run(false);
    const auto tdx = run(true);
    // Per 2 MiB-stride fault: CCA needs 4 RMIs (leaf-table delegate +
    // create, data delegate + create) plus one level-2 table for the
    // fresh region; TDX-style pays only the 2 data RMIs.
    EXPECT_EQ(cca, 202u);
    EXPECT_EQ(tdx, 100u);
}
