/**
 * @file
 * Workload-level integration tests: every generator runs end to end in
 * multiple modes, and cross-mode comparisons have the right sign
 * (e.g. SR-IOV beats virtio; more cores build faster; identical seeds
 * give identical results — invariant I9).
 */

#include <gtest/gtest.h>

#include "workloads/coremark.hh"
#include "workloads/iozone.hh"
#include "workloads/kbuild.hh"
#include "workloads/netpipe.hh"
#include "workloads/redis.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using sim::Tick;
using sim::msec;
using sim::usec;

namespace {

CoreMarkPro::Result
runCoreMark(RunMode mode, int phys_cores, Tick duration,
            std::uint64_t seed = 0xc0ffee)
{
    Testbed::Config cfg;
    cfg.numCores = phys_cores;
    cfg.mode = mode;
    cfg.seed = seed;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("cm", phys_cores);
    CoreMarkPro::Config wcfg;
    wcfg.duration = duration;
    CoreMarkPro cm(bed, vm, wcfg);
    cm.install();
    bed.spawnStart();
    bed.run(duration + 2 * sim::sec);
    return cm.result();
}

} // namespace

TEST(TestbedAccounting, SharedGetsNVcpusGappedGetsNMinusOne)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::SharedCore;
    Testbed shared(cfg);
    EXPECT_EQ(shared.createVm("a", 4).numVcpus(), 4);

    cfg.mode = RunMode::CoreGapped;
    Testbed gapped(cfg);
    VmInstance& g = gapped.createVm("b", 4);
    EXPECT_EQ(g.numVcpus(), 3);
    EXPECT_EQ(g.guestCores.size(), 3u);
    EXPECT_EQ(g.hostMask.count(), 1);
    ASSERT_NE(g.gapped, nullptr);
}

TEST(CoreMark, RunsInEveryMode)
{
    for (RunMode m : {RunMode::SharedCore, RunMode::SharedCoreCvm,
                      RunMode::CoreGapped,
                      RunMode::CoreGappedNoDelegation}) {
        CoreMarkPro::Result r = runCoreMark(m, 4, 300 * msec);
        EXPECT_GT(r.score, 0.0) << runModeName(m);
        EXPECT_GT(r.iterations, 100u) << runModeName(m);
    }
}

TEST(CoreMark, DeterministicForSameSeed)
{
    CoreMarkPro::Result a =
        runCoreMark(RunMode::CoreGapped, 4, 300 * msec, 7);
    CoreMarkPro::Result b =
        runCoreMark(RunMode::CoreGapped, 4, 300 * msec, 7);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_DOUBLE_EQ(a.score, b.score);
}

TEST(CoreMark, DifferentSeedsDifferSlightly)
{
    CoreMarkPro::Result a =
        runCoreMark(RunMode::CoreGapped, 4, 300 * msec, 7);
    CoreMarkPro::Result b =
        runCoreMark(RunMode::CoreGapped, 4, 300 * msec, 8);
    // Jitter shifts exact counts but not the magnitude.
    EXPECT_NEAR(a.score, b.score, a.score * 0.05);
}

TEST(CoreMark, GappedCompetitiveWithShared)
{
    // 8 physical cores: shared runs 8 vCPUs, gapped runs 7 + host.
    CoreMarkPro::Result shared =
        runCoreMark(RunMode::SharedCore, 8, 400 * msec);
    CoreMarkPro::Result gapped =
        runCoreMark(RunMode::CoreGapped, 8, 400 * msec);
    // 7/8 of the vCPUs, so roughly 7/8 of the score; competitive
    // means within ~20% (fig. 6's story at moderate core counts).
    EXPECT_GT(gapped.score, shared.score * 0.70);
    EXPECT_LT(gapped.score, shared.score * 1.05);
}

TEST(NetPipe, SriovBeatsVirtio)
{
    auto run_netpipe = [](bool sriov) {
        Testbed::Config cfg;
        cfg.numCores = 4;
        cfg.mode = RunMode::SharedCore;
        Testbed bed(cfg);
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0;
        VmInstance& vm = bed.createVm("np", 2, vcfg);
        std::unique_ptr<GuestNic> nic;
        if (sriov) {
            bed.addSriovNic(vm);
            nic = std::make_unique<SriovGuestNic>(*vm.sriov);
        } else {
            bed.addMqNic(vm, {.queues = 1, .kickBatchLimit = 1});
            nic = std::make_unique<MqGuestNic>(*vm.mqnet);
        }
        RemoteHost remote(bed.sim(), bed.fabric(),
                          bed.machine().costs().remoteStack);
        NetPipeResponder responder(remote);
        NetPipe::Config ncfg;
        ncfg.messageBytes = 1448;
        ncfg.iterations = 15;
        NetPipe np(bed, vm, *nic, remote, ncfg);
        np.install();
        bed.spawnStart();
        bed.run(4 * sim::sec);
        return np.result();
    };
    NetPipe::Result virtio = run_netpipe(false);
    NetPipe::Result sriov = run_netpipe(true);
    ASSERT_EQ(virtio.completed, 15);
    ASSERT_EQ(sriov.completed, 15);
    EXPECT_LT(sriov.latencyUs, virtio.latencyUs);
    EXPECT_GT(sriov.throughputGbps, virtio.throughputGbps);
}

TEST(NetPipe, LargerMessagesHigherThroughput)
{
    auto run_size = [](std::uint64_t bytes) {
        Testbed::Config cfg;
        cfg.numCores = 4;
        cfg.mode = RunMode::SharedCore;
        Testbed bed(cfg);
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0;
        VmInstance& vm = bed.createVm("np", 2, vcfg);
        bed.addSriovNic(vm);
        SriovGuestNic nic(*vm.sriov);
        RemoteHost remote(bed.sim(), bed.fabric(),
                          bed.machine().costs().remoteStack);
        NetPipeResponder responder(remote);
        NetPipe::Config ncfg;
        ncfg.messageBytes = bytes;
        ncfg.iterations = 8;
        NetPipe np(bed, vm, nic, remote, ncfg);
        np.install();
        bed.spawnStart();
        bed.run(10 * sim::sec);
        return np.result();
    };
    NetPipe::Result small = run_size(256);
    NetPipe::Result large = run_size(64 * 1024);
    ASSERT_GT(small.completed, 0);
    ASSERT_GT(large.completed, 0);
    EXPECT_GT(large.throughputGbps, small.throughputGbps * 3);
    EXPECT_GT(large.latencyUs, small.latencyUs);
}

TEST(IoZone, ThroughputGrowsWithRecordSize)
{
    auto run_record = [](std::uint64_t record) {
        Testbed::Config cfg;
        cfg.numCores = 4;
        cfg.mode = RunMode::SharedCore;
        Testbed bed(cfg);
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0;
        VmInstance& vm = bed.createVm("io", 2, vcfg);
        bed.addVirtioBlk(vm);
        IoZone::Config icfg;
        icfg.recordBytes = record;
        icfg.fileBytes = 16ull << 20;
        icfg.maxOps = 64;
        IoZone io(bed, vm, icfg);
        io.install();
        bed.spawnStart();
        bed.run(30 * sim::sec);
        return io.result();
    };
    IoZone::Result small = run_record(16 * 1024);
    IoZone::Result large = run_record(4 << 20);
    ASSERT_GT(small.ops, 0);
    ASSERT_GT(large.ops, 0);
    EXPECT_GT(large.throughputMBps, small.throughputMBps * 4);
}

TEST(Redis, ServesRequestsWithPlausibleLatency)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("redis", 2);
    bed.addSriovNic(vm);
    SriovGuestNic nic(*vm.sriov);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack);
    RedisBenchmark::Config rcfg;
    rcfg.op = RedisOp::Get;
    rcfg.duration = 300 * msec;
    rcfg.clients = 20;
    RedisBenchmark rb(bed, vm, nic, clients, rcfg);
    rb.install();
    bed.spawnStart();
    bed.run(2 * sim::sec);
    RedisBenchmark::Result r = rb.result();
    EXPECT_GT(r.completed, 1000u);
    EXPECT_GT(r.throughputKrps, 5.0);
    EXPECT_GT(r.meanMs, 0.01);
    EXPECT_LT(r.meanMs, 5.0);
    EXPECT_GE(r.p99Ms, r.p95Ms);
    EXPECT_GE(r.p95Ms, r.meanMs * 0.5);
}

TEST(KernelBuild, MoreCoresBuildFaster)
{
    auto run_build = [](int cores) {
        Testbed::Config cfg;
        cfg.numCores = cores;
        cfg.mode = RunMode::SharedCore;
        Testbed bed(cfg);
        VmInstance& vm = bed.createVm("kb", cores);
        bed.addVirtioBlk(vm);
        KernelBuild::Config kcfg;
        kcfg.jobs = 48;
        kcfg.compilePerJob = 60 * msec;
        kcfg.linkCompute = 200 * msec;
        KernelBuild kb(bed, vm, kcfg);
        kb.install();
        bed.spawnStart();
        bed.run(60 * sim::sec);
        return kb.result();
    };
    KernelBuild::Result four = run_build(4);
    KernelBuild::Result eight = run_build(8);
    ASSERT_TRUE(four.finished);
    ASSERT_TRUE(eight.finished);
    EXPECT_EQ(four.jobsDone, 48);
    EXPECT_LT(eight.buildTime, four.buildTime);
}

TEST(KernelBuild, GappedCompletesOverVirtioDisk)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("kb", 4);
    bed.addVirtioBlk(vm);
    KernelBuild::Config kcfg;
    kcfg.jobs = 24;
    kcfg.compilePerJob = 40 * msec;
    kcfg.linkCompute = 100 * msec;
    KernelBuild kb(bed, vm, kcfg);
    kb.install();
    bed.spawnStart();
    bed.run(60 * sim::sec);
    KernelBuild::Result r = kb.result();
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.jobsDone, 24);
}
