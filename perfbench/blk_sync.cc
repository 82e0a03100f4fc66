/**
 * @file
 * blk-sync: fig. 9-style O_DIRECT reads and writes through virtio-blk,
 * one I/O outstanding, at 4 KiB and 64 KiB records, shared-core and
 * core-gapped. Each point keeps fig. 9's fixed 120 s horizon, so most
 * of its events are idle vCPU ticks after the I/O window closes.
 */

#include <memory>

#include "perfbench/driver.hh"

namespace perfbench {

namespace sim = cg::sim;
namespace guest = cg::guest;
using cg::workloads::RunMode;
using cg::workloads::Testbed;
using cg::workloads::VmInstance;

namespace {

/** fig9_iozone's per-point horizon. */
constexpr Tick blkHorizon = 120 * sim::sec;

/** I/Os per point: 4 records x 2 directions x this per mode gives
 * p99 well over ten samples beyond it. */
constexpr int blkOpsPerPoint = 2048;

struct IoLoopState {
    std::vector<double> latUs;
    int completed = 0;
    Tick start = 0;
    Tick end = 0;
};

/** The benchmark's own guest I/O loop on vCPU 0: the same calls as
 * workloads::IoZone, with each guestIo timed in simulated time. */
sim::Proc<void>
ioLoop(Testbed& bed, VmInstance& vm, BlkPoint p, IoLoopState& st,
       SimDriver& drv)
{
    co_await bed.started().wait();
    guest::VCpu& v = vm.vcpu(0);
    sim::Simulation& s = bed.sim();
    st.start = s.now();
    for (int i = 0; i < p.ops; ++i) {
        const Tick t0 = s.now();
        co_await vm.vblk->guestIo(v, p.recordBytes, p.write);
        st.latUs.push_back(sim::ticksToUs(s.now() - t0));
        ++st.completed;
    }
    st.end = s.now();
    drv.closeWindow();
    co_await v.shutdown();
}

} // namespace

BlkPointResult
runBlkPoint(const BlkPoint& p, bool traced, RunResult& out)
{
    LayerTally& lt = out.layers;
    IoLoopState st;
    const Clock::time_point t0 = Clock::now();
    Testbed::Config cfg;
    cfg.numCores = 16;
    cfg.mode = p.mode;
    cfg.seed = p.seed;
    auto bed = std::make_unique<Testbed>(cfg);
    SimDriver drv(*bed, traced, lt);
    const double buildS = secondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    VmInstance& vm = bed->createVm("io", 16);
    bed->addVirtioBlk(vm);
    vm.vcpu(0).startGuest("io/blk-sync", ioLoop(*bed, vm, p, st, drv));
    const double createS = secondsSince(t1);

    const Clock::time_point t2 = Clock::now();
    bed->spawnStart();
    if (!drv.runUntilOpen(bed->started(), blkHorizon))
        out.fail("blk-sync: testbed never started");
    const double bringupS = secondsSince(t2);
    out.setupS += buildS + createS + bringupS;

    drv.runTo(blkHorizon);
    drv.finish();

    const Clock::time_point t3 = Clock::now();
    bed.reset();
    lt.testbedBuildUs.push_back(buildS * 1e6);
    lt.vmCreateUs.push_back(createS * 1e6);
    lt.bringupHostUs.push_back(bringupS * 1e6);
    lt.teardownUs.push_back(secondsSince(t3) * 1e6);

    BlkPointResult r;
    r.completed = st.completed;
    r.elapsed = st.end > st.start ? st.end - st.start : 0;
    if (r.elapsed > 0) {
        r.throughputMBps = static_cast<double>(st.completed) *
                           static_cast<double>(p.recordBytes) /
                           (1 << 20) / sim::toSec(r.elapsed);
    }
    r.latUs = std::move(st.latUs);
    out.attempted += static_cast<std::uint64_t>(p.ops);
    out.failed += static_cast<std::uint64_t>(p.ops - r.completed);
    if (r.completed != p.ops)
        out.fail("blk-sync: an I/O did not complete before the horizon");
    return r;
}

RunResult
runBlkSync(std::uint64_t seed, bool traced)
{
    RunResult out;
    std::uint64_t salt = 0;
    for (RunMode mode : {RunMode::SharedCore, RunMode::CoreGapped}) {
        const char* name = mode == RunMode::SharedCore ? "shared" : "gapped";
        for (std::uint64_t record : {4096ull, 65536ull}) {
            for (bool write : {false, true}) {
                BlkPoint p;
                p.mode = mode;
                p.recordBytes = record;
                p.write = write;
                p.ops = blkOpsPerPoint;
                p.seed = testbedSeed(seed, salt++);
                out.partProbeS.push_back(probeHostS());
                const Clock::time_point tp = Clock::now();
                const double setup0 = out.setupS;
                BlkPointResult r = runBlkPoint(p, traced, out);
                out.partWallS.push_back(secondsSince(tp));
                out.partSetupS.push_back(out.setupS - setup0);
                std::vector<double>& lat = out.latUs[name];
                lat.insert(lat.end(), r.latUs.begin(), r.latUs.end());
                out.fingerprint.push_back(static_cast<double>(r.elapsed));
            }
        }
    }
    return out;
}

} // namespace perfbench
