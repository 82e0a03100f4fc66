/**
 * @file
 * Extension: long-haul churn soak for the realm-migration control
 * plane. A single testbed runs hours of *simulated* create / run /
 * migrate / hotplug / destroy churn with every fault site armed at a
 * nonzero rate, the isolation checker watching, and scrub
 * verification on — and asserts, at every checkpoint:
 *
 *   - zero leak edges (the dirty-handback oracle stays silent);
 *   - exact CorePlanner accounting: reserved cores equal the live
 *     VMs' pools plus quarantined (lost) cores, nothing leaks;
 *   - online-core conservation: every core is online unless dedicated
 *     to a live realm or quarantined;
 *   - migration bookkeeping in lockstep: the RMM's started count
 *     equals committed + aborted, and the controllers' outcome tally
 *     equals the ops issued;
 *   - granule conservation: every granule the monitor tracks belongs
 *     to a live realm (teardown undelegates a destroyed realm's), so
 *     nothing is tracked once the soak drains;
 *   - bounded stat drift: checker events per op stay under a fixed
 *     ceiling (a runaway feedback loop would blow it).
 *
 * The whole run is deterministic in (seed, plan): stdout carries only
 * simulated time and counters, so two same-seed runs diff clean —
 * scripts/ci.sh replays the smoke mode twice and compares.
 *
 *   --sim-hours <h>   simulated soak length (default 2.0)
 *   --ops <n>         stop after n churn ops instead (0 = by time)
 *   --seed <n>        soak RNG / testbed seed
 *   --quick           ~60 simulated seconds (the ctest smoke mode)
 *
 * plus the common harness flags (bench/common.hh). Without --faults /
 * --check the soak arms its own all-site plan and checker.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/migration.hh"
#include "core/planner.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace host = cg::host;
namespace check = cg::check;
using namespace cg::workloads;
using cg::core::CorePlanner;
using cg::core::MigrateResult;
using cg::core::MigrationController;
using sim::Proc;
using sim::Tick;
using sim::msec;

namespace {

/** Every site armed at a nonzero rate (acceptance criterion). The
 * disruptive ones are rate-limited, not disabled: monitor-hang is
 * capped because each hang costs a terminate() escalation. */
constexpr const char* kDefaultPlan =
    "ipi-drop:p=0.002:max=0;"
    "ipi-delay:p=0.002:param=10us:max=0;"
    "doorbell-lost:p=0.002:max=0;"
    "syncrpc-stall:p=0.002:max=0;"
    "monitor-hang:p=0.0005:max=3;"
    "hotplug-offline-fail:p=0.02:max=0;"
    "hotplug-online-fail:p=0.02:max=0;"
    "rmi-transient-error:p=0.005:max=0;"
    "scrub-skip:p=0.05:max=0;"
    "virtio-lost-kick:p=0.005:max=0;"
    "migration-abort:p=0.05:max=0;"
    "rtt-copy-stall:p=0.05:max=0";

constexpr int kNumCores = 16;
constexpr int kHostCores = 2;
constexpr int kCoresPerVm = 2;
constexpr int kMaxLive = 4;
constexpr Tick kOpGap = 2 * sim::sec;
constexpr Tick kOpDeadline = 30 * sim::sec;
constexpr int kCheckpointEvery = 16;
/** Drift ceiling: checker events per churn op (loose; a feedback
 * loop — e.g. a retry storm — would exceed it by orders). */
constexpr double kMaxCheckerEventsPerOp = 2e6;

/** The churn guest: rounds of page faults + compute, then shutdown,
 * so both the teardown path (clean guests) and the terminate path
 * (guests still running, or a hung monitor) see traffic. */
Proc<void>
churnWorker(Testbed& bed, guest::VCpu& v, int idx, int rounds,
            std::uint64_t& completed)
{
    co_await bed.started().wait();
    for (int r = 0; r < rounds; ++r) {
        co_await v.pageFault(0x60000000ull +
                             (static_cast<std::uint64_t>(idx) * 1024 +
                              static_cast<std::uint64_t>(r) % 512) *
                                 4096);
        co_await sim::Compute{2 * msec};
        ++completed;
    }
    co_await v.shutdown();
}

struct Slot {
    VmInstance* inst = nullptr;
    std::unique_ptr<MigrationController> ctrl;
    std::vector<std::uint64_t> rounds;
    std::uint64_t lostSeen = 0; ///< coresLost() already accounted
    int id = 0;
};

Proc<void>
startSlot(cg::core::GappedVm& g, int& out)
{
    out = (co_await g.start()) ? 1 : -1;
}

Proc<void>
migrateSlot(MigrationController& c, std::vector<sim::CoreId> dest,
            MigrateResult& res, bool& done)
{
    if (dest.empty())
        res = co_await c.migrate();
    else
        res = co_await c.migrateTo(std::move(dest));
    done = true;
}

Proc<void>
teardownSlot(cg::core::GappedVm& g, bool& done)
{
    co_await g.teardown();
    done = true;
}

Proc<void>
terminateSlot(cg::core::GappedVm& g, bool& done)
{
    co_await g.terminate();
    done = true;
}

Proc<void>
hotplugRoundTrip(host::Kernel& k, sim::CoreId c, bool& done)
{
    bool off = co_await k.offlineCore(c);
    if (!off)
        off = co_await k.offlineCore(c);
    if (off) {
        while (!co_await k.onlineCore(c)) {
        }
    }
    done = true;
}

constexpr const char* kOwnFlags =
    "[--sim-hours <h>] [--ops <n>] [--seed <n>] ";

/** --sim-hours: a finite count of hours whose horizon, in ticks, fits
 * a Tick; anything else exits 2 via usage(). */
double
simHoursFlag(const char* argv0, const char* text)
{
    const double max_hours =
        static_cast<double>(sim::maxTick / sim::sec) / 3600.0;
    char* end = nullptr;
    errno = 0;
    const double h = std::strtod(text, &end);
    if ((!std::isdigit(static_cast<unsigned char>(*text)) && *text != '.') ||
        errno != 0 || *end != '\0' || !(h < max_hours)) {
        cg::bench::usage(argv0, kOwnFlags,
                         sim::strFormat("--sim-hours: bad value '%s'", text));
    }
    return h;
}

struct Tally {
    std::uint64_t ops = 0;
    std::uint64_t creates = 0;
    std::uint64_t createRefused = 0;
    std::uint64_t startFailures = 0;
    std::uint64_t migrateOps = 0;
    std::uint64_t committed = 0;
    std::uint64_t rolledBack = 0;
    std::uint64_t refused = 0;
    std::uint64_t hotplugs = 0;
    std::uint64_t destroys = 0;
    std::uint64_t terminates = 0;
    std::uint64_t workerRounds = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t failures = 0; ///< invariant violations
};

} // namespace

int
main(int argc, char** argv)
{
    double sim_hours = 2.0;
    std::uint64_t max_ops = 0;
    std::uint64_t seed = 0x50a7c4;
    // Pre-filter the soak-specific flags; everything else (including
    // --quick) goes to the common harness.
    std::vector<char*> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char* flag = argv[i];
        if (std::strcmp(flag, "--sim-hours") == 0 && i + 1 < argc) {
            sim_hours = simHoursFlag(argv[0], argv[++i]);
        } else if (std::strcmp(flag, "--ops") == 0 && i + 1 < argc) {
            max_ops = cg::bench::unsignedFlag(argv[0], kOwnFlags, flag,
                                              argv[++i]);
        } else if (std::strcmp(flag, "--seed") == 0 && i + 1 < argc) {
            seed = cg::bench::unsignedFlag(argv[0], kOwnFlags, flag,
                                           argv[++i]);
        } else {
            rest.push_back(argv[i]);
        }
    }
    cg::bench::initHarness(static_cast<int>(rest.size()), rest.data());

    const Tick soak_end = cg::bench::quick()
                              ? 60 * sim::sec
                              : static_cast<Tick>(sim_hours * 3600.0) *
                                    sim::sec;
    cg::bench::banner(
        "Extension: churn soak — create/run/migrate/hotplug/destroy "
        "under fault injection",
        "robustness extension (no paper counterpart)");
    std::printf("  seed %" PRIu64 ", horizon %.3f sim hours%s\n", seed,
                static_cast<double>(soak_end) /
                    static_cast<double>(3600 * sim::sec),
                cg::bench::quick() ? " (--quick)" : "");

    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = kNumCores;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = seed;
    cfg.verifyScrubs = true; // fault-armed soak must run leak-free
    Testbed bed(cfg);

    std::unique_ptr<check::IsolationChecker> own_checker;
    check::IsolationChecker* checker = bed.checker();
    if (!checker) {
        own_checker = std::make_unique<check::IsolationChecker>(
            bed.sim().queue());
        bed.machine().attachChecker(own_checker.get());
        checker = own_checker.get();
    }
    if (cfg.run.faults.empty()) {
        bed.sim().faults().arm(seed ^ 0x9e3779b97f4a7c15ull,
                               sim::FaultPlan::parse(kDefaultPlan));
    }

    CorePlanner planner(bed.machine(), host::CpuMask::firstN(kHostCores));
    bed.spawnStart(); // no VMs yet: opens started() for the workers

    std::mt19937_64 rng(seed);
    std::vector<std::unique_ptr<Slot>> live;
    Tally t;
    int next_id = 0;
    std::uint64_t last_ckpt_events = 0;
    std::uint64_t last_ckpt_ops = 0;

    auto fail = [&t](const char* what) {
        std::fprintf(stderr, "soak: INVARIANT VIOLATED: %s\n", what);
        ++t.failures;
    };

    /** Pick up newly quarantined cores on a slot since last look. */
    auto harvest_lost = [&t](Slot& s) {
        const std::uint64_t lost = s.inst->gapped->coresLost();
        t.quarantined += lost - s.lostSeen;
        s.lostSeen = lost;
    };

    auto checkpoint = [&]() {
        const std::uint64_t edges = checker->edgeTotal();
        if (edges != 0)
            fail("leak edges != 0");
        const int expect_reserved =
            static_cast<int>(live.size()) * kCoresPerVm +
            static_cast<int>(t.quarantined);
        if (planner.reservedCores() != expect_reserved)
            fail("planner reservation drift");
        const int expect_online =
            kNumCores - static_cast<int>(live.size()) * kCoresPerVm -
            static_cast<int>(t.quarantined);
        if (bed.kernel().onlineCount() != expect_online)
            fail("online-core conservation drift");
        const auto& rs = bed.rmm().stats();
        if (rs.migrationsStarted.value() !=
            rs.migrationsCommitted.value() +
                rs.migrationsAborted.value())
            fail("migration phase accounting drift");
        std::uint64_t outcomes = t.committed + t.rolledBack + t.refused;
        if (outcomes != t.migrateOps)
            fail("migration outcome tally drift");
        const cg::rmm::GranuleTracker& granules = bed.rmm().granules();
        std::size_t owned = 0;
        for (const auto& s : live)
            owned += granules.owned(s->inst->kvm->realmId()).size();
        if (granules.trackedCount() != owned)
            fail("tracked granules != the live realms' granules");
        const std::uint64_t ev = checker->eventCount();
        if (t.ops > last_ckpt_ops) {
            const double per_op =
                static_cast<double>(ev - last_ckpt_events) /
                static_cast<double>(t.ops - last_ckpt_ops);
            if (per_op > kMaxCheckerEventsPerOp)
                fail("checker events per op above drift ceiling");
        }
        last_ckpt_events = ev;
        last_ckpt_ops = t.ops;
        std::printf("  ckpt t=%12.3fs ops=%6" PRIu64 " live=%zu "
                    "mig=%" PRIu64 "/%" PRIu64 "/%" PRIu64
                    " edges=%" PRIu64 " reserved=%d quarantined=%"
                    PRIu64 " rounds=%" PRIu64 "\n",
                    sim::toSec(bed.sim().now()), t.ops, live.size(),
                    t.committed, t.rolledBack, t.refused, edges,
                    planner.reservedCores(), t.quarantined,
                    t.workerRounds);
    };

    auto op_create = [&]() {
        if (live.size() >= kMaxLive) {
            ++t.createRefused;
            return;
        }
        auto cores = planner.reserve(kCoresPerVm);
        if (!cores) {
            ++t.createRefused;
            return;
        }
        auto slot = std::make_unique<Slot>();
        slot->id = next_id++;
        const host::CpuMask hmask =
            host::CpuMask::single(slot->id % kHostCores);
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0; // sparse guests: the soak is control-plane
        slot->inst = &bed.createVmOn("churn" + std::to_string(slot->id),
                                     *cores, hmask, kCoresPerVm, vcfg,
                                     &planner);
        slot->rounds.assign(kCoresPerVm, 0);
        const int rounds = 6 + static_cast<int>(rng() % 18);
        for (int i = 0; i < kCoresPerVm; ++i) {
            slot->inst->vcpu(i).startGuest(
                "w", churnWorker(bed, slot->inst->vcpu(i), i, rounds,
                                 slot->rounds[static_cast<size_t>(i)]));
        }
        int started = 0;
        bed.sim().spawn("churn-start",
                        startSlot(*slot->inst->gapped, started));
        const Tick limit = bed.sim().now() + kOpDeadline;
        while (started == 0 && bed.sim().now() < limit)
            bed.run(bed.sim().now() + 50 * msec);
        if (started != 1) {
            // Rolled back (or wedged, which fail()s the run): the
            // runner already released its reservations, minus any
            // core the double hotplug failure quarantined.
            if (started == 0)
                fail("VM start wedged");
            ++t.startFailures;
            harvest_lost(*slot);
            bed.destroyVm(*slot->inst);
            return;
        }
        slot->ctrl = std::make_unique<MigrationController>(
            *slot->inst->gapped, nullptr);
        live.push_back(std::move(slot));
        ++t.creates;
    };

    auto op_migrate = [&]() {
        if (live.empty())
            return;
        Slot& s = *live[rng() % live.size()];
        // Half defrag-policy moves, half explicit moves to a fresh
        // pool (released right back so the controller can take it).
        std::vector<sim::CoreId> dest;
        if (rng() % 2 == 0) {
            auto fresh = planner.reserve(kCoresPerVm);
            if (fresh) {
                planner.release(*fresh);
                dest = *fresh;
            }
        }
        MigrateResult res = MigrateResult::Refused;
        bool done = false;
        bed.sim().spawn("churn-migrate",
                        migrateSlot(*s.ctrl, dest, res, done));
        const Tick limit = bed.sim().now() + kOpDeadline;
        while (!done && bed.sim().now() < limit)
            bed.run(bed.sim().now() + 50 * msec);
        if (!done) {
            fail("migration wedged past its deadline");
            return;
        }
        ++t.migrateOps;
        switch (res) {
          case MigrateResult::Committed:
            ++t.committed;
            break;
          case MigrateResult::RolledBack:
            ++t.rolledBack;
            break;
          case MigrateResult::Refused:
            ++t.refused;
            break;
        }
        harvest_lost(s);
    };

    auto op_hotplug = [&]() {
        auto core = planner.reserve(1);
        if (!core)
            return;
        bool done = false;
        bed.sim().spawn("churn-hotplug",
                        hotplugRoundTrip(bed.kernel(), (*core)[0],
                                         done));
        const Tick limit = bed.sim().now() + kOpDeadline;
        while (!done && bed.sim().now() < limit)
            bed.run(bed.sim().now() + 50 * msec);
        if (!done)
            fail("hotplug round trip wedged");
        planner.release(*core);
        ++t.hotplugs;
    };

    auto op_destroy = [&]() {
        if (live.empty())
            return;
        const std::size_t idx = rng() % live.size();
        Slot& s = *live[idx];
        // Clean guests tear down; running (or monitor-hung) ones are
        // terminated — and a fifth of the clean ones too, to keep the
        // escalation path hot.
        const bool clean = s.inst->kvm->shutdownGate().isOpen();
        const bool use_teardown = clean && rng() % 5 != 0;
        bool done = false;
        if (use_teardown) {
            bed.sim().spawn("churn-teardown",
                            teardownSlot(*s.inst->gapped, done));
        } else {
            ++t.terminates;
            bed.sim().spawn("churn-terminate",
                            terminateSlot(*s.inst->gapped, done));
        }
        const Tick limit = bed.sim().now() + kOpDeadline;
        while (!done && bed.sim().now() < limit)
            bed.run(bed.sim().now() + 50 * msec);
        if (!done) {
            fail("destroy wedged past its deadline");
            return;
        }
        harvest_lost(s);
        for (std::uint64_t r : s.rounds)
            t.workerRounds += r;
        bed.destroyVm(*s.inst);
        live.erase(live.begin() +
                   static_cast<std::ptrdiff_t>(idx));
        ++t.destroys;
    };

    while (bed.sim().now() < soak_end &&
           (max_ops == 0 || t.ops < max_ops)) {
        const std::uint64_t dice = rng() % 100;
        if (dice < 30)
            op_create();
        else if (dice < 55)
            op_migrate();
        else if (dice < 70)
            op_hotplug();
        else
            op_destroy();
        ++t.ops;
        bed.run(bed.sim().now() + kOpGap);
        if (t.ops % kCheckpointEvery == 0)
            checkpoint();
    }

    // Drain: destroy every remaining realm, then the books must be
    // exactly empty — only quarantined cores stay reserved.
    while (!live.empty())
        op_destroy();
    checkpoint();
    if (planner.reservedCores() != static_cast<int>(t.quarantined))
        fail("cores leaked after full drain");
    if (bed.rmm().granules().trackedCount() != 0)
        fail("granules still tracked after full drain");

    const sim::FaultPlan& faults = bed.sim().faults();
    std::printf("\n  soak summary\n");
    std::printf("    sim time          %12.3f s\n",
                sim::toSec(bed.sim().now()));
    std::printf("    churn ops         %8" PRIu64
                "  (create %" PRIu64 ", migrate %" PRIu64
                ", hotplug %" PRIu64 ", destroy %" PRIu64 ")\n",
                t.ops, t.creates, t.migrateOps, t.hotplugs, t.destroys);
    std::printf("    migrations        %8" PRIu64 " committed, %"
                PRIu64 " rolled back, %" PRIu64 " refused\n",
                t.committed, t.rolledBack, t.refused);
    std::printf("    terminates        %8" PRIu64
                "  start failures %" PRIu64 "\n",
                t.terminates, t.startFailures);
    std::printf("    worker rounds     %8" PRIu64 "\n", t.workerRounds);
    std::printf("    faults injected   %8" PRIu64 "\n",
                faults.injectedTotal());
    std::printf("    quarantined cores %8" PRIu64 "\n", t.quarantined);
    std::printf("    leak edges        %8" PRIu64 "\n",
                checker->edgeTotal());
    std::printf("    invariant fails   %8" PRIu64 "\n", t.failures);

    cg::bench::jsonRow("soak.migrations", 0.0,
                       static_cast<double>(t.committed));
    cg::bench::jsonRow("soak.leakEdges", 0.0,
                       static_cast<double>(checker->edgeTotal()));
    cg::bench::jsonRow("soak.ops", 0.0, static_cast<double>(t.ops));
    cg::bench::jsonRow("soak.rollbacks", 0.0,
                       static_cast<double>(t.rolledBack));
    cg::bench::jsonRow("soak.quarantined", 0.0,
                       static_cast<double>(t.quarantined));
    cg::bench::jsonRow("soak.simHours", 0.0,
                       sim::toSec(bed.sim().now()) / 3600.0);
    cg::bench::sectionEnd();

    if (own_checker)
        bed.machine().attachChecker(nullptr);
    if (t.failures != 0 || checker->edgeTotal() != 0) {
        std::fprintf(stderr, "ext_soak_churn: FAILED (%" PRIu64
                             " invariant violations)\n",
                     t.failures);
        return 1;
    }
    return 0;
}
