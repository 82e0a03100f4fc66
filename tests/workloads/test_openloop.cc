/**
 * @file
 * Regression pins for the redis workloads' reported numbers: the
 * closed-loop table-5 benchmark and the open-loop serving-path sweep.
 * Two layers of protection:
 *
 *  - identity: every reported millisecond value must equal
 *    ticksToMs() of the underlying distribution's percentile, so a
 *    hand-rolled conversion can never sneak back in;
 *  - goldens: exact outputs for a fixed seed, pinning the simulated
 *    schedule end to end (costs, device model, rng draws). A model
 *    change that shifts these is fine — update the goldens — but it
 *    must be a conscious update, not drift.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/simulation.hh"
#include "workloads/nic.hh"
#include "workloads/redis.hh"
#include "workloads/remote.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
using namespace cg::workloads;
using sim::Tick;
using sim::usec;
using sim::msec;

namespace {

RedisOpenLoop::Result
runOpenLoopSmall()
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("redis", 4);
    Testbed::MqNicOptions opt;
    opt.queues = 2;
    bed.addMqNic(vm, opt);
    MqGuestNic nic(*vm.mqnet);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack, 4);
    RedisOpenLoop::Config rcfg;
    rcfg.op = RedisOp::Get;
    rcfg.offeredKrps = 50.0;
    rcfg.duration = 50 * msec;
    rcfg.serverThreads = 2;
    RedisOpenLoop ol(bed, vm, nic, clients, rcfg);
    ol.install();
    bed.spawnStart();
    bed.run(2 * sim::sec);
    RedisOpenLoop::Result r = ol.result();
    // Identity layer, checked here where the workload is still alive.
    EXPECT_EQ(ol.latencies().count(), r.completed);
    EXPECT_DOUBLE_EQ(
        r.p50Ms, sim::ticksToMs(ol.latencies().dist().percentile(50)));
    EXPECT_DOUBLE_EQ(
        r.p99Ms, sim::ticksToMs(ol.latencies().dist().percentile(99)));
    EXPECT_DOUBLE_EQ(
        r.p999Ms,
        sim::ticksToMs(ol.latencies().dist().percentile(99.9)));
    EXPECT_DOUBLE_EQ(r.meanMs,
                     sim::ticksToMs(ol.latencies().dist().mean()));
    return r;
}

} // namespace

TEST(RedisOpenLoopPin, FixedSeedGoldens)
{
    const RedisOpenLoop::Result r = runOpenLoopSmall();
    // ~50 krps for 50 ms: ~2500 Poisson arrivals, all completed.
    EXPECT_EQ(r.sent, r.completed);
    EXPECT_NEAR(r.achievedKrps, r.offeredKrps,
                0.2 * r.offeredKrps);
    EXPECT_GT(r.maxInFlight, 0u);
    // Goldens for the default testbed seed (0xc0ffee). Deliberate
    // model changes may update these; see the file header.
    std::printf("openloop pin: sent=%llu p50=%.9f p99=%.9f "
                "p999=%.9f mean=%.9f\n",
                static_cast<unsigned long long>(r.sent), r.p50Ms,
                r.p99Ms, r.p999Ms, r.meanMs);
    EXPECT_EQ(r.sent, 2453u);
    EXPECT_NEAR(r.p50Ms, 0.044240042, 1e-8);
    EXPECT_NEAR(r.p99Ms, 0.217824900, 1e-8);
    EXPECT_NEAR(r.p999Ms, 0.312528101, 1e-8);
}

TEST(RedisClosedLoopPin, FixedSeedGoldens)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("redis", 4);
    bed.addSriovNic(vm);
    SriovGuestNic nic(*vm.sriov);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack);
    RedisBenchmark::Config rcfg;
    rcfg.op = RedisOp::Get;
    rcfg.clients = 10;
    rcfg.duration = 100 * msec;
    RedisBenchmark rb(bed, vm, nic, clients, rcfg);
    rb.install();
    bed.spawnStart();
    bed.run(2 * sim::sec);
    const RedisBenchmark::Result r = rb.result();
    // Identity: the table-5 milliseconds come from ticksToMs of the
    // recorded tick distribution, nothing else.
    EXPECT_DOUBLE_EQ(r.meanMs,
                     sim::ticksToMs(rb.latencies().mean()));
    EXPECT_DOUBLE_EQ(r.p95Ms,
                     sim::ticksToMs(rb.latencies().percentile(95)));
    EXPECT_DOUBLE_EQ(r.p99Ms,
                     sim::ticksToMs(rb.latencies().percentile(99)));
    std::printf("closedloop pin: completed=%llu krps=%.9f "
                "mean=%.9f p95=%.9f p99=%.9f\n",
                static_cast<unsigned long long>(r.completed),
                r.throughputKrps, r.meanMs, r.p95Ms, r.p99Ms);
    EXPECT_EQ(r.completed, 4713u);
    EXPECT_NEAR(r.throughputKrps, 47.13, 1e-6);
    EXPECT_NEAR(r.meanMs, 0.089829517, 1e-8);
}
