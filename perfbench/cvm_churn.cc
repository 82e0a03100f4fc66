/**
 * @file
 * cvm-churn: back-to-back control-plane ops on 2-core tickless gapped
 * CVMs, at most four live: create + GappedVm::start, migration
 * (MigrationController::migrate when the planner has a defrag move,
 * else migrateTo a fresh pool), a Kernel::offlineCore/onlineCore round
 * trip, and teardown (or terminate, for a VM whose guest is still
 * running). The isolation checker is armed; no fault plan is.
 *
 * Ops come in epochs with fixed counts per kind, so the op mix has the
 * same proportions at every seed and only their order, the VMs they
 * pick and the model's jitter change. Latency percentiles over a mix
 * whose proportions drift from seed to seed would jump between kinds.
 */

#include <algorithm>
#include <memory>
#include <random>

#include "core/migration.hh"
#include "core/planner.hh"
#include "perfbench/driver.hh"

namespace perfbench {

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace host = cg::host;
using cg::core::CorePlanner;
using cg::core::MigrateResult;
using cg::core::MigrationController;
using cg::workloads::RunMode;
using cg::workloads::Testbed;
using cg::workloads::VmInstance;

namespace {

constexpr int churnCores = 16;
constexpr int churnHostCores = 2;
constexpr int churnCoresPerVm = 2;
constexpr int churnMaxLive = 4;
/** Host cost per op grows with the number of VMs a testbed has ever
 * held, so the ops are spread over several fresh testbeds. */
constexpr int churnTestbeds = 6;
constexpr int churnEpochs = 50;
/** Per epoch: starts, migrations, hotplug round trips, destroys. */
constexpr int epochStarts = churnMaxLive;
constexpr int epochMigrates = churnMaxLive;
constexpr int epochHotplugs = 2;
/** A control-plane op not done by then counts as failed. */
constexpr Tick opDeadline = 30 * sim::sec;
/** Guest page-fault + compute rounds before it shuts down (or parks). */
constexpr int roundsMin = 2;
constexpr int roundsSpan = 5;

/** A churn guest vCPU: page faults and compute, then shutdown; or,
 * when @p hold is given, park on it (never opened) so the guest is
 * still running, idle, when the host terminates it. */
sim::Proc<void>
churnWorker(Testbed& bed, guest::VCpu& v, int idx, int rounds,
            sim::Gate* hold)
{
    co_await bed.started().wait();
    for (int r = 0; r < rounds; ++r) {
        co_await v.pageFault(0x60000000ull +
                             (static_cast<std::uint64_t>(idx) * 1024 +
                              static_cast<std::uint64_t>(r) % 512) *
                                 4096);
        co_await sim::Compute{250 * sim::usec};
    }
    if (hold)
        co_await hold->wait();
    co_await v.shutdown();
}

/** What one op coroutine reports. Churn keeps every one alive until
 * its testbed is gone, so an op that overruns its deadline never
 * writes to freed memory. */
struct OpDone {
    sim::Gate gate;
    Tick at = 0;
    bool ok = false;
    MigrateResult res = MigrateResult::Refused;
};

sim::Proc<void>
startOp(Testbed& bed, cg::core::GappedVm& g, OpDone& d)
{
    d.ok = co_await g.start();
    d.at = bed.sim().now();
    d.gate.open();
}

sim::Proc<void>
migrateOp(Testbed& bed, MigrationController& c,
          std::vector<sim::CoreId> dest, OpDone& d)
{
    if (dest.empty())
        d.res = co_await c.migrate();
    else
        d.res = co_await c.migrateTo(std::move(dest));
    d.at = bed.sim().now();
    d.gate.open();
}

sim::Proc<void>
destroyOp(Testbed& bed, cg::core::GappedVm& g, bool terminate, OpDone& d)
{
    if (terminate)
        co_await g.terminate();
    else
        co_await g.teardown();
    d.at = bed.sim().now();
    d.gate.open();
}

sim::Proc<void>
hotplugOp(Testbed& bed, sim::CoreId c, OpDone& d)
{
    d.ok = co_await bed.kernel().offlineCore(c);
    if (d.ok)
        d.ok = co_await bed.kernel().onlineCore(c);
    d.at = bed.sim().now();
    d.gate.open();
}

struct Live {
    VmInstance* inst = nullptr;
    std::unique_ptr<MigrationController> ctrl;
    bool terminateBound = false;
    bool migrated = false;
    sim::Gate hold; ///< never opened: parks a terminate-bound guest
};

enum class Op { Start, Migrate, Hotplug, Destroy };

class Churn
{
  public:
    /** @p seed drives both the testbed and the op schedule. */
    Churn(std::uint64_t seed, bool traced, RunResult& out)
        : seed_(seed), traced_(traced), out_(out), rng_(seed)
    {
    }

    void run();

  private:
    /** Drive one op to completion; false (and a failure) on timeout. */
    bool await(OpDone& d, const char* kind, Tick t0,
               Clock::time_point h0);
    void opStart(bool terminate_bound);
    void opMigrate(Live& l);
    void opHotplug();
    void opDestroy(std::size_t idx);
    OpDone& newOp();

    std::uint64_t seed_;
    bool traced_;
    RunResult& out_;
    std::mt19937_64 rng_;
    std::vector<std::unique_ptr<OpDone>> ops_; ///< outlives bed_
    std::unique_ptr<Testbed> bed_;
    std::unique_ptr<SimDriver> drv_;
    std::unique_ptr<cg::check::IsolationChecker> checker_;
    std::unique_ptr<CorePlanner> planner_;
    std::vector<std::unique_ptr<Live>> live_;
    int nextId_ = 0;
    std::uint64_t migrateOps_ = 0;
    std::uint64_t committed_ = 0;
};

OpDone&
Churn::newOp()
{
    ops_.push_back(std::make_unique<OpDone>());
    return *ops_.back();
}

bool
Churn::await(OpDone& d, const char* kind, Tick t0, Clock::time_point h0)
{
    const bool done = drv_->runUntilOpen(d.gate, t0 + opDeadline);
    ++out_.attempted;
    if (!done) {
        ++out_.failed;
        out_.fail(std::string("cvm-churn: ") + kind + " op timed out");
        return false;
    }
    out_.latUs["gapped"].push_back(sim::ticksToUs(d.at - t0));
    out_.layers.opHostMs[kind].push_back(secondsSince(h0) * 1e3);
    out_.layers.opSimMs[kind].push_back(sim::ticksToMs(d.at - t0));
    return true;
}

void
Churn::opStart(bool terminate_bound)
{
    const Clock::time_point h0 = Clock::now();
    auto cores = planner_->reserve(churnCoresPerVm);
    if (!cores) {
        ++out_.attempted;
        ++out_.failed;
        out_.fail("cvm-churn: planner refused a create");
        return;
    }
    auto l = std::make_unique<Live>();
    const int id = nextId_++;
    l->terminateBound = terminate_bound;
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0; // tickless: the workload is control-plane
    const Clock::time_point c0 = Clock::now();
    l->inst = &bed_->createVmOn(
        "churn" + std::to_string(id), *cores,
        host::CpuMask::single(id % churnHostCores), churnCoresPerVm, vcfg,
        planner_.get());
    const int rounds = roundsMin + static_cast<int>(rng_() % roundsSpan);
    for (int i = 0; i < churnCoresPerVm; ++i) {
        l->inst->vcpu(i).startGuest(
            "w", churnWorker(*bed_, l->inst->vcpu(i), i, rounds,
                             terminate_bound ? &l->hold : nullptr));
    }
    out_.layers.vmCreateUs.push_back(secondsSince(c0) * 1e6);

    OpDone& d = newOp();
    const Tick t0 = bed_->sim().now();
    bed_->sim().spawn("churn-start", startOp(*bed_, *l->inst->gapped, d));
    if (!await(d, "start", t0, h0))
        return;
    if (!d.ok) {
        ++out_.failed;
        out_.fail("cvm-churn: start rolled back");
        if (traced_)
            foldVmStats(bed_->sim().stats(), l->inst->vm->name(),
                        out_.layers);
        bed_->destroyVm(*l->inst);
        return;
    }
    l->ctrl = std::make_unique<MigrationController>(*l->inst->gapped,
                                                    planner_.get());
    live_.push_back(std::move(l));
}

void
Churn::opMigrate(Live& l)
{
    const Clock::time_point h0 = Clock::now();
    // The defrag policy when it has a strictly improving move; else an
    // explicit move to a fresh pool (the controller reserves it).
    std::vector<sim::CoreId> dest;
    if (!planner_->planDefragMove(l.inst->gapped->config().guestCores)) {
        auto fresh = planner_->reserve(churnCoresPerVm);
        if (fresh) {
            planner_->release(*fresh);
            dest = *fresh;
        }
    }
    OpDone& d = newOp();
    const Tick t0 = bed_->sim().now();
    bed_->sim().spawn("churn-migrate", migrateOp(*bed_, *l.ctrl, dest, d));
    l.migrated = true;
    ++migrateOps_;
    if (!await(d, "migrate", t0, h0))
        return;
    if (d.res == MigrateResult::Committed) {
        ++committed_;
    } else {
        ++out_.failed;
        out_.fail(std::string("cvm-churn: migration ") +
                  cg::core::migrateResultName(d.res));
    }
}

void
Churn::opHotplug()
{
    const Clock::time_point h0 = Clock::now();
    auto core = planner_->reserve(1);
    if (!core) {
        ++out_.attempted;
        ++out_.failed;
        out_.fail("cvm-churn: no free core to hotplug");
        return;
    }
    OpDone& d = newOp();
    const Tick t0 = bed_->sim().now();
    bed_->sim().spawn("churn-hotplug", hotplugOp(*bed_, (*core)[0], d));
    const bool done = await(d, "hotplug", t0, h0);
    planner_->release(*core);
    if (done && !d.ok) {
        ++out_.failed;
        out_.fail("cvm-churn: hotplug round trip refused");
    }
}

void
Churn::opDestroy(std::size_t idx)
{
    Live& l = *live_[idx];
    // A teardown-bound guest finishes its rounds first; that wait is
    // guest run time, not part of the op. One that never does is
    // terminated instead.
    bool terminate = l.terminateBound;
    if (!terminate &&
        !drv_->runUntilOpen(l.inst->kvm->shutdownGate(),
                            bed_->sim().now() + opDeadline)) {
        out_.fail("cvm-churn: guest never shut down");
        terminate = true;
    }
    const Clock::time_point h0 = Clock::now();
    OpDone& d = newOp();
    const Tick t0 = bed_->sim().now();
    bed_->sim().spawn("churn-destroy",
                      destroyOp(*bed_, *l.inst->gapped, terminate, d));
    // A VM whose destroy overran its deadline stays with the testbed.
    if (await(d, "teardown", t0, h0)) {
        const Clock::time_point c0 = Clock::now();
        if (traced_)
            foldVmStats(bed_->sim().stats(), l.inst->vm->name(),
                        out_.layers);
        l.ctrl.reset();
        bed_->destroyVm(*l.inst);
        out_.layers.teardownUs.push_back(secondsSince(c0) * 1e6);
    }
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void
Churn::run()
{
    LayerTally& lt = out_.layers;
    const Clock::time_point t0 = Clock::now();
    Testbed::Config cfg;
    cfg.numCores = churnCores;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = seed_;
    bed_ = std::make_unique<Testbed>(cfg);
    drv_ = std::make_unique<SimDriver>(*bed_, traced_, lt);
    checker_ = std::make_unique<cg::check::IsolationChecker>(
        bed_->sim().queue());
    bed_->machine().attachChecker(checker_.get());
    checker_->setTracer(&bed_->sim().tracer());
    planner_ = std::make_unique<CorePlanner>(
        bed_->machine(), host::CpuMask::firstN(churnHostCores));
    const double buildS = secondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    bed_->spawnStart(); // no VMs yet: opens started() for the guests
    if (!drv_->runUntilOpen(bed_->started(), opDeadline))
        out_.fail("cvm-churn: testbed never started");
    const double bringupS = secondsSince(t1);
    out_.setupS += buildS + bringupS;
    lt.testbedBuildUs.push_back(buildS * 1e6);
    lt.bringupHostUs.push_back(bringupS * 1e6);

    for (int e = 0; e < churnEpochs; ++e) {
        int starts = epochStarts;
        int migrates = epochMigrates;
        int hotplugs = epochHotplugs;
        int destroys = churnMaxLive;
        const int terminateAt = static_cast<int>(rng_() % epochStarts);
        while (starts + migrates + hotplugs + destroys > 0) {
            std::vector<std::size_t> unmigrated, migrated;
            for (std::size_t i = 0; i < live_.size(); ++i)
                (live_[i]->migrated ? migrated : unmigrated).push_back(i);
            std::vector<Op> can;
            if (starts > 0 && live_.size() < churnMaxLive)
                can.push_back(Op::Start);
            if (migrates > 0 && !unmigrated.empty())
                can.push_back(Op::Migrate);
            if (hotplugs > 0)
                can.push_back(Op::Hotplug);
            if (destroys > 0 && !migrated.empty())
                can.push_back(Op::Destroy);
            if (can.empty()) {
                out_.fail("cvm-churn: epoch schedule stuck");
                break;
            }
            switch (can[rng_() % can.size()]) {
              case Op::Start:
                opStart(epochStarts - starts == terminateAt);
                --starts;
                break;
              case Op::Migrate:
                opMigrate(*live_[unmigrated[rng_() % unmigrated.size()]]);
                --migrates;
                break;
              case Op::Hotplug:
                opHotplug();
                --hotplugs;
                break;
              case Op::Destroy:
                opDestroy(migrated[rng_() % migrated.size()]);
                --destroys;
                break;
            }
        }
    }
    while (!live_.empty())
        opDestroy(live_.size() - 1);

    // The books must be exactly empty once every realm is gone.
    if (checker_->edgeTotal() != 0)
        out_.fail("cvm-churn: leak edges");
    if (planner_->reservedCores() != 0)
        out_.fail("cvm-churn: planner reservations left after drain");
    if (bed_->kernel().onlineCount() != churnCores)
        out_.fail("cvm-churn: cores left offline after drain");
    const auto& rs = bed_->rmm().stats();
    if (rs.migrationsStarted.value() !=
        rs.migrationsCommitted.value() + rs.migrationsAborted.value())
        out_.fail("cvm-churn: migrations started != committed + aborted");

    drv_->finish();
    lt.counts["check.events"] += static_cast<double>(checker_->eventCount());
    lt.counts["check.leak_edges"] +=
        static_cast<double>(checker_->edgeTotal());
    lt.counts["core.migrate_ops"] += static_cast<double>(migrateOps_);
    lt.counts["core.migrate_committed"] += static_cast<double>(committed_);
    out_.fingerprint.push_back(static_cast<double>(bed_->sim().now()));
    out_.fingerprint.push_back(static_cast<double>(checker_->eventCount()));

    const Clock::time_point t2 = Clock::now();
    bed_->machine().attachChecker(nullptr);
    drv_.reset();
    bed_.reset();
    lt.teardownUs.push_back(secondsSince(t2) * 1e6);
}

} // namespace

RunResult
runCvmChurn(std::uint64_t seed, bool traced)
{
    RunResult out;
    for (int t = 0; t < churnTestbeds; ++t) {
        out.partProbeS.push_back(probeHostS());
        const Clock::time_point tp = Clock::now();
        const double setup0 = out.setupS;
        Churn(testbedSeed(seed, 200 + t), traced, out).run();
        out.partWallS.push_back(secondsSince(tp));
        out.partSetupS.push_back(out.setupS - setup0);
    }
    return out;
}

} // namespace perfbench
