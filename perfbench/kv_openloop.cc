/**
 * @file
 * kv-openloop: Poisson GET arrivals over the 4-queue MqVirtioNet, one
 * fixed offered load per configuration, each below its table 5 knee.
 * The serving path (kicks, kick batching, IRQ injection, the wake-up
 * thread) dominates; the idle tail after the window is short.
 */

#include <memory>

#include "perfbench/driver.hh"
#include "workloads/nic.hh"
#include "workloads/remote.hh"

namespace perfbench {

namespace sim = cg::sim;
using cg::workloads::MqGuestNic;
using cg::workloads::RedisOp;
using cg::workloads::RedisOpenLoop;
using cg::workloads::RemoteHost;
using cg::workloads::RunMode;
using cg::workloads::Testbed;
using cg::workloads::VmInstance;

namespace {

/** table5_redis's drain allowance past the window. */
constexpr Tick kvDrain = 10 * sim::sec;

/** Measurement window per configuration. */
constexpr Tick kvWindow = 1000 * sim::msec;

/** Offered load per configuration (krps), each below its table 5
 * p999 knee (~120 shared, under 40 gapped-trapped, ~169 gapped-ipu). */
constexpr double kvLoad[] = {80.0, 20.0, 120.0};

} // namespace

const char*
kvModeName(KvMode m)
{
    switch (m) {
      case KvMode::Shared:
        return "shared";
      case KvMode::Gapped:
        return "gapped";
      case KvMode::GappedIpu:
        return "gapped_ipu";
    }
    return "?";
}

KvPointResult
runKvPoint(const KvPoint& p, bool traced, RunResult& out)
{
    LayerTally& lt = out.layers;
    const Clock::time_point t0 = Clock::now();
    Testbed::Config cfg;
    cfg.numCores = 16;
    cfg.mode = p.mode == KvMode::Shared ? RunMode::SharedCoreCvm
                                        : RunMode::CoreGapped;
    if (p.mode != KvMode::Shared)
        cfg.wakeSpinMax = 4 * sim::usec;
    cfg.seed = p.seed;
    auto bed = std::make_unique<Testbed>(cfg);
    SimDriver drv(*bed, traced, lt);
    const double buildS = secondsSince(t0);

    // The table 5 sweep's layout: 12 physical cores for the VM in every
    // mode; gapped_ipu takes 4 of the rest as the device's I/O cores.
    const Clock::time_point t1 = Clock::now();
    VmInstance& vm = bed->createVm("redis", 12);
    Testbed::MqNicOptions nopt;
    nopt.queues = 4;
    if (p.mode == KvMode::GappedIpu) {
        nopt.ipuOffload = true;
        nopt.ipuCores = 4;
        nopt.directRx = true;
    }
    bed->addMqNic(vm, nopt);
    MqGuestNic nic(*vm.mqnet);
    RemoteHost clients(bed->sim(), bed->fabric(),
                       bed->machine().costs().remoteStack, 8);
    RedisOpenLoop::Config rcfg;
    rcfg.op = RedisOp::Get;
    rcfg.offeredKrps = p.offeredKrps;
    rcfg.duration = p.window;
    rcfg.serverThreads = 4;
    RedisOpenLoop ol(*bed, vm, nic, clients, rcfg);
    ol.install();
    const double createS = secondsSince(t1);

    const Clock::time_point t2 = Clock::now();
    bed->spawnStart();
    const Tick horizon = p.window + kvDrain;
    if (!drv.runUntilOpen(bed->started(), horizon))
        out.fail("kv-openloop: testbed never started");
    const double bringupS = secondsSince(t2);
    out.setupS += buildS + createS + bringupS;

    drv.closeWindowAt(bed->sim().now() + p.window);
    drv.runTo(horizon);
    drv.finish();

    KvPointResult r;
    r.r = ol.result();
    r.kickExits = vm.mqnet->dataPathKickExits();
    for (double ticks : ol.latencies().dist().samples())
        r.latUs.push_back(sim::ticksToUs(ticks));

    const Clock::time_point t3 = Clock::now();
    bed.reset();
    lt.testbedBuildUs.push_back(buildS * 1e6);
    lt.vmCreateUs.push_back(createS * 1e6);
    lt.bringupHostUs.push_back(bringupS * 1e6);
    lt.teardownUs.push_back(secondsSince(t3) * 1e6);

    out.attempted += r.r.sent;
    out.failed += r.r.sent - std::min(r.r.sent, r.r.completed);
    if (r.r.completed != r.r.sent)
        out.fail("kv-openloop: a GET got no response");
    if (p.mode == KvMode::GappedIpu && r.kickExits + r.r.irqExits != 0)
        out.fail("kv-openloop: data-path exits in gapped_ipu");
    return r;
}

RunResult
runKvOpenLoop(std::uint64_t seed, bool traced)
{
    RunResult out;
    std::uint64_t salt = 0;
    for (KvMode m : {KvMode::Shared, KvMode::Gapped, KvMode::GappedIpu}) {
        KvPoint p;
        p.mode = m;
        p.offeredKrps = kvLoad[salt];
        p.window = kvWindow;
        p.seed = testbedSeed(seed, 100 + salt++);
        out.partProbeS.push_back(probeHostS());
        const Clock::time_point tp = Clock::now();
        const double setup0 = out.setupS;
        KvPointResult r = runKvPoint(p, traced, out);
        out.partWallS.push_back(secondsSince(tp));
        out.partSetupS.push_back(out.setupS - setup0);
        out.latUs[kvModeName(m)] = std::move(r.latUs);
        out.fingerprint.push_back(static_cast<double>(r.r.sent));
        out.fingerprint.push_back(r.r.p999Ms);
    }
    return out;
}

} // namespace perfbench
