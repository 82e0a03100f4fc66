/**
 * @file
 * Horizon-hit property: every paper workload that ends in a guest
 * shutdown() leaves its testbed quiescent before its bench's bed.run()
 * horizon — the event queue drained and every VM's shutdownGate open.
 * A run still simulating at its horizon was cut there, not finished.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "sim/simulation.hh"
#include "workloads/coremark.hh"
#include "workloads/iozone.hh"
#include "workloads/kbuild.hh"
#include "workloads/netpipe.hh"
#include "workloads/nic.hh"
#include "workloads/redis.hh"
#include "workloads/remote.hh"

namespace sim = cg::sim;
using namespace cg::workloads;
using sim::Tick;
using sim::msec;

namespace {

/** Start @p bed, run it to @p horizon and check it quiesced first. */
void
runAndExpectQuiescent(Testbed& bed, Tick horizon)
{
    bed.spawnStart();
    bed.run(horizon);
    EXPECT_TRUE(bed.sim().queue().empty())
        << bed.sim().queue().pending() << " events still pending";
    for (const auto& v : bed.vms()) {
        EXPECT_TRUE(v->kvm->shutdownGate().isOpen())
            << v->vm->name() << " never shut down";
    }
}

// Each case mirrors its bench at a small size, with the bench's
// horizon (fig. 9: 120 s, fig. 8: 60 s, fig. 10: 600 s, fig. 6:
// duration + 3 s, table 5: 6 s and duration + 10 s).

void
ioZone(Testbed& bed)
{
    VmInstance& vm = bed.createVm("io", 4);
    bed.addVirtioBlk(vm);
    IoZone::Config c;
    c.fileBytes = 16 * c.recordBytes;
    IoZone io(bed, vm, c);
    io.install();
    runAndExpectQuiescent(bed, 120 * sim::sec);
    EXPECT_EQ(io.result().ops, 16);
}

void
netPipe(Testbed& bed, bool sriov)
{
    VmInstance& vm = bed.createVm("np", 4);
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
    NetPipe::Config c;
    c.iterations = 5;
    NetPipe np(bed, vm, *nic, remote, c);
    np.install();
    runAndExpectQuiescent(bed, 60 * sim::sec);
    EXPECT_EQ(np.result().completed, c.iterations);
}

void
kernelBuild(Testbed& bed)
{
    VmInstance& vm = bed.createVm("kb", 4);
    bed.addVirtioBlk(vm);
    KernelBuild::Config c;
    c.jobs = 8;
    c.compilePerJob = 5 * msec;
    c.linkCompute = 10 * msec;
    c.linkReadBytes = 256 << 10;
    c.linkWriteBytes = 256 << 10;
    KernelBuild kb(bed, vm, c);
    kb.install();
    runAndExpectQuiescent(bed, 600 * sim::sec);
    EXPECT_TRUE(kb.result().finished);
}

void
coreMarkPro(Testbed& bed)
{
    VmInstance& vm = bed.createVm("cm", 4);
    CoreMarkPro::Config c;
    c.duration = 50 * msec;
    CoreMarkPro cm(bed, vm, c);
    cm.install();
    runAndExpectQuiescent(bed, c.duration + 3 * sim::sec);
    EXPECT_GT(cm.result().score, 0.0);
}

void
redisBenchmark(Testbed& bed)
{
    VmInstance& vm = bed.createVm("redis", 4);
    bed.addSriovNic(vm);
    SriovGuestNic nic(*vm.sriov);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack);
    RedisBenchmark::Config c;
    c.clients = 10;
    c.duration = 50 * msec;
    RedisBenchmark rb(bed, vm, nic, clients, c);
    rb.install();
    runAndExpectQuiescent(bed, 6 * sim::sec);
    EXPECT_GT(rb.result().completed, 0u);
}

void
redisOpenLoop(Testbed& bed)
{
    VmInstance& vm = bed.createVm("redis", 4);
    Testbed::MqNicOptions opt;
    opt.queues = 2;
    bed.addMqNic(vm, opt);
    MqGuestNic nic(*vm.mqnet);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack, 4);
    RedisOpenLoop::Config c;
    c.offeredKrps = 20.0;
    c.duration = 20 * msec;
    c.serverThreads = 2;
    RedisOpenLoop ol(bed, vm, nic, clients, c);
    ol.install();
    runAndExpectQuiescent(bed, c.duration + 10 * sim::sec);
    const RedisOpenLoop::Result r = ol.result();
    EXPECT_GT(r.sent, 0u);
    EXPECT_EQ(r.completed, r.sent);
}

struct WorkloadCase {
    const char* name;
    void (*run)(Testbed& bed);
};

/** Print the case by name, not as gtest's raw byte dump. */
void
PrintTo(const WorkloadCase& c, std::ostream* os)
{
    *os << c.name;
}

class BenchWorkloads
    : public ::testing::TestWithParam<std::tuple<WorkloadCase, RunMode>>
{
};

} // namespace

TEST_P(BenchWorkloads, QuiesceBeforeTheirHorizon)
{
    const auto& [workload, mode] = GetParam();
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = mode;
    Testbed bed(cfg);
    workload.run(bed);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BenchWorkloads,
    ::testing::Combine(
        ::testing::Values(WorkloadCase{"iozone", ioZone},
                          WorkloadCase{"netpipe_virtio",
                                       [](Testbed& b) { netPipe(b, false); }},
                          WorkloadCase{"netpipe_sriov",
                                       [](Testbed& b) { netPipe(b, true); }},
                          WorkloadCase{"kernel_build", kernelBuild},
                          WorkloadCase{"coremark_pro", coreMarkPro},
                          WorkloadCase{"redis_benchmark", redisBenchmark},
                          WorkloadCase{"redis_openloop", redisOpenLoop}),
        ::testing::Values(RunMode::SharedCore, RunMode::CoreGapped)),
    [](const auto& info) {
        std::string n = std::string(std::get<0>(info.param).name) + "_" +
                        runModeName(std::get<1>(info.param));
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });
