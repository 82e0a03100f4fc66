/**
 * @file
 * Property tests for the isolation checker against the full testbed
 * and the attack suite:
 *
 *  - every core-gapped scenario (including a full terminate cycle that
 *    hands the dedicated cores back) reports ZERO leak edges — the
 *    checker has no false positives on the paper's design;
 *  - every no-mitigation scenario (shared cores, with or without CCA)
 *    reports at least one leak edge, agreeing with the attack lab and
 *    the vulnerability catalogue;
 *  - the checker is pure observation: armed runs end at the same tick
 *    as unarmed runs, and identical (seed, mode) pairs replay to
 *    identical event/edge counts;
 *  - the seeded scrub-skip fault makes the checker fire (the CI
 *    must-fire test: a broken mitigation cannot go unnoticed).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attacks/catalog.hh"
#include "attacks/lab.hh"
#include "check/checker.hh"
#include "core/migration.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "workloads/coremark.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace host = cg::host;
namespace check = cg::check;
using namespace cg::attacks;
using namespace cg::workloads;
using check::IsolationChecker;
using check::LeakKind;
using sim::Proc;
using sim::Tick;
using sim::msec;

namespace {

struct CheckedRun {
    std::uint64_t edgeTotal = 0;
    std::uint64_t probeResidue = 0;
    std::uint64_t dirtyEnter = 0;
    std::uint64_t dirtyHandback = 0;
    std::uint64_t events = 0;
    Tick endTick = 0;
    std::vector<check::LeakEdge> edges;
    LeakReport leaks;
};

Proc<void>
terminateAll(Testbed& bed)
{
    for (const auto& v : bed.vms()) {
        if (v->gapped)
            co_await v->gapped->terminate();
    }
}

/**
 * The attack-lab scenario (victim runs CPU work, attacker probes)
 * with an IsolationChecker attached; gapped VMs are terminated at the
 * end so the core-handback path is exercised too. @p with_checker
 * false measures the identical run unobserved; @p fault_plan
 * optionally arms the fault plan (e.g. "scrub-skip").
 */
CheckedRun
runChecked(RunMode mode, bool with_checker = true,
           const std::string& fault_plan = "",
           std::uint64_t seed = 0xc0ffee)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = mode;
    cfg.seed = seed;
    Testbed bed(cfg);

    std::unique_ptr<IsolationChecker> checker;
    if (with_checker) {
        checker =
            std::make_unique<IsolationChecker>(bed.sim().queue());
        bed.machine().attachChecker(checker.get());
    }
    if (!fault_plan.empty()) {
        bed.sim().faults().arm(17,
                               sim::FaultPlan::parse(fault_plan));
    }

    guest::VmConfig vcfg;
    vcfg.footprint = 900;
    VmInstance *victim, *attacker;
    if (isGapped(mode)) {
        victim = &bed.createVm("victim", 3, vcfg);
        attacker = &bed.createVm("attacker", 3, vcfg);
    } else {
        std::vector<sim::CoreId> cores{0, 1};
        host::CpuMask mask;
        for (sim::CoreId c : cores)
            mask.set(c);
        victim = &bed.createVmOn("victim", cores, mask, 2, vcfg);
        attacker = &bed.createVmOn("attacker", cores, mask, 2, vcfg);
    }

    CoreMarkPro::Config wcfg;
    wcfg.duration = 250 * msec;
    CoreMarkPro victim_work(bed, *victim, wcfg);
    victim_work.install();

    AttackLab::Config acfg;
    acfg.duration = 250 * msec;
    AttackLab lab(bed, *attacker, victim->vm->domain(), acfg);
    lab.install();

    bed.spawnStart();
    bed.run(3 * sim::sec);
    // Hand every dedicated core back: the teardown scrub (or its
    // fault-injected absence) is part of the checked surface.
    bed.sim().spawn("terminate-all", terminateAll(bed));
    const Tick end = bed.run(4 * sim::sec);

    CheckedRun r;
    r.endTick = end;
    r.leaks = lab.report();
    if (checker) {
        r.edgeTotal = checker->edgeTotal();
        r.probeResidue = checker->edgeCount(LeakKind::ProbeResidue);
        r.dirtyEnter = checker->edgeCount(LeakKind::DirtyEnter);
        r.dirtyHandback =
            checker->edgeCount(LeakKind::DirtyHandback);
        r.events = checker->eventCount();
        r.edges = checker->edges();
        bed.machine().attachChecker(nullptr);
    }
    return r;
}

/** Everything a migration-under-observation test may probe. */
struct MigrationCheckedRun {
    cg::core::MigrateResult result = cg::core::MigrateResult::Refused;
    std::uint64_t dirtyHandbackAfterMove = 0; ///< before terminate
    std::uint64_t dirtyHandback = 0;
    std::uint64_t edgeTotal = 0;
    std::uint64_t stalls = 0;
    std::uint64_t aborted = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t detected = 0;  ///< for @p site
    std::uint64_t recovered = 0; ///< for @p site
};

Proc<void>
migrateMidRun(Testbed& bed, cg::core::MigrationController& ctrl,
              std::vector<sim::CoreId> dest,
              cg::core::MigrateResult& out)
{
    co_await bed.started().wait();
    co_await sim::Delay{60 * msec};
    out = co_await ctrl.migrateTo(std::move(dest));
}

/**
 * A victim CVM runs CPU work (dirtying its dedicated cores), migrates
 * mid-run to a fresh pool, finishes, and is terminated — all under an
 * IsolationChecker, with @p fault_plan armed. The migration's source
 * handback is the checked surface: residue left by a skipped scrub
 * must show up as a dirty-handback edge.
 */
MigrationCheckedRun
runMigrationChecked(const std::string& fault_plan, sim::FaultSite site,
                    bool verify_scrubs = false)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::CoreGapped;
    cfg.verifyScrubs = verify_scrubs;
    Testbed bed(cfg);
    IsolationChecker checker(bed.sim().queue());
    bed.machine().attachChecker(&checker);
    if (!fault_plan.empty()) {
        bed.sim().faults().arm(17,
                               sim::FaultPlan::parse(fault_plan));
    }

    guest::VmConfig vcfg;
    vcfg.footprint = 900;
    VmInstance& victim = bed.createVm("victim", 3, vcfg);
    CoreMarkPro::Config wcfg;
    wcfg.duration = 250 * msec;
    CoreMarkPro work(bed, victim, wcfg);
    work.install();

    cg::core::MigrationController ctrl(*victim.gapped, nullptr);
    MigrationCheckedRun r;
    bed.spawnStart();
    bed.sim().spawn("migrate",
                    migrateMidRun(bed, ctrl, {3, 4}, r.result));
    bed.run(2 * sim::sec);
    // Snapshot between the move and the terminate: any dirty-handback
    // edge so far is the migration's, not teardown's.
    r.dirtyHandbackAfterMove =
        checker.edgeCount(LeakKind::DirtyHandback);
    bed.run(3 * sim::sec);
    bed.sim().spawn("terminate-all", terminateAll(bed));
    bed.run(4 * sim::sec);

    r.dirtyHandback = checker.edgeCount(LeakKind::DirtyHandback);
    r.edgeTotal = checker.edgeTotal();
    r.stalls = bed.rmm().stats().migrationStalls.value();
    r.aborted = bed.rmm().stats().migrationsAborted.value();
    r.scrubRepairs = bed.rmm().stats().scrubRepairs.value() +
                     victim.gapped->scrubRepairs();
    r.detected = bed.sim().faults().detectionLatency(site).count();
    r.recovered = bed.sim().faults().recoveryLatency(site).count();
    bed.machine().attachChecker(nullptr);
    return r;
}

} // namespace

TEST(CheckProperties, GappedScenariosRaiseZeroLeakEdges)
{
    // Zero false positives: the paper's design, in every evaluated
    // variant, must be silent — including the terminate/handback path.
    for (RunMode m : {RunMode::CoreGapped, RunMode::CoreGappedBusyWait,
                      RunMode::CoreGappedNoDelegation}) {
        CheckedRun r = runChecked(m);
        EXPECT_EQ(r.edgeTotal, 0u) << runModeName(m);
        EXPECT_GT(r.events, 1000u) << runModeName(m); // it did watch
        EXPECT_GT(r.leaks.at(Channel::L1d).probes, 50u)
            << runModeName(m); // and the attacker did probe
    }
}

TEST(CheckProperties, NoMitigationScenariosRaiseLeakEdges)
{
    // Sharing is leaking: both shared-core configurations must light
    // up, and the plain shared-core one via observed probe residue.
    CheckedRun shared = runChecked(RunMode::SharedCore);
    EXPECT_GE(shared.edgeTotal, 1u);
    EXPECT_GE(shared.probeResidue, 1u);

    CheckedRun cvm = runChecked(RunMode::SharedCoreCvm);
    EXPECT_GE(cvm.edgeTotal, 1u);
}

TEST(CheckProperties, CheckerAgreesWithTheAttackLabAndCatalog)
{
    CheckedRun shared = runChecked(RunMode::SharedCore);
    CheckedRun gapped = runChecked(RunMode::CoreGapped);

    // The lab observed per-core victim residue on shared cores; the
    // checker must have flagged those same channels (l1d and tlb leak
    // per the attack tests), and on the structures the catalogue's
    // same-core entries exploit.
    for (const char* structure : {"l1d", "tlb"}) {
        bool flagged = false;
        for (const auto& e : shared.edges) {
            flagged = flagged ||
                      e.structure.find(structure) != std::string::npos;
        }
        EXPECT_TRUE(flagged) << structure;
    }

    // Catalogue cross-reference: core gapping claims to mitigate every
    // same-core/SMT vulnerability — so the gapped run must be silent —
    // while the shared run leaks through structures of the same
    // classes the catalogue names.
    EXPECT_GE(mitigatedByCoreGapping().size(), 30u);
    EXPECT_TRUE(gapped.leaks.anySharedLeak()); // LLC stays out of scope
    EXPECT_EQ(gapped.edgeTotal, 0u);
    EXPECT_TRUE(shared.leaks.anySameCoreLeak());
    EXPECT_GE(shared.edgeTotal, 1u);
}

TEST(CheckProperties, CheckerIsPureObservation)
{
    // Armed and unarmed runs of the same (seed, mode) end at the same
    // simulated tick and see the same attack-lab readings.
    for (RunMode m : {RunMode::CoreGapped, RunMode::SharedCore}) {
        CheckedRun armed = runChecked(m, /*with_checker=*/true);
        CheckedRun bare = runChecked(m, /*with_checker=*/false);
        EXPECT_EQ(armed.endTick, bare.endTick) << runModeName(m);
        EXPECT_EQ(armed.leaks.at(Channel::L1d).victimEntriesSeen,
                  bare.leaks.at(Channel::L1d).victimEntriesSeen)
            << runModeName(m);
    }
}

TEST(CheckProperties, CheckedRunsReplayBitIdentically)
{
    for (RunMode m : {RunMode::CoreGapped, RunMode::SharedCore}) {
        CheckedRun a = runChecked(m);
        CheckedRun b = runChecked(m);
        EXPECT_EQ(a.endTick, b.endTick) << runModeName(m);
        EXPECT_EQ(a.events, b.events) << runModeName(m);
        EXPECT_EQ(a.edgeTotal, b.edgeTotal) << runModeName(m);
        EXPECT_EQ(a.probeResidue, b.probeResidue) << runModeName(m);
        EXPECT_EQ(a.dirtyEnter, b.dirtyEnter) << runModeName(m);
        EXPECT_EQ(a.dirtyHandback, b.dirtyHandback) << runModeName(m);
    }
}

TEST(CheckMustFire, ScrubSkipFaultIsCaughtByTheChecker)
{
    // The deliberately-broken mitigation: teardown skips the scrub of
    // one dedicated core. The checker MUST flag the handback — this is
    // the CI gate proving the checker can actually fail a run.
    CheckedRun r = runChecked(RunMode::CoreGapped,
                              /*with_checker=*/true, "scrub-skip");
    EXPECT_GE(r.dirtyHandback, 1u);
    bool on_core_structure = false;
    for (const auto& e : r.edges) {
        if (e.kind == LeakKind::DirtyHandback)
            on_core_structure = on_core_structure || e.core >= 0;
    }
    EXPECT_TRUE(on_core_structure);

    // The same run without the fault is clean: the edge is the bug's
    // signature, not checker noise.
    CheckedRun clean = runChecked(RunMode::CoreGapped);
    EXPECT_EQ(clean.edgeTotal, 0u);
}

TEST(CheckMustFire, MigrationScrubSkipFiresDirtyHandback)
{
    // The acceptance oracle for scrub-verified teardown: skipping the
    // source-core scrub on a migration handback MUST be caught by the
    // checker as a dirty-handback edge. The first scrub-skip query in
    // this scenario is the migration's (the VM never rebinds and is
    // terminated only later), so nth=1 pins the fault to the move.
    MigrationCheckedRun r = runMigrationChecked(
        "scrub-skip:nth=1", sim::FaultSite::ScrubSkip);
    EXPECT_EQ(r.result, cg::core::MigrateResult::Committed);
    EXPECT_GE(r.dirtyHandbackAfterMove, 1u);

    // The identical run without the fault is silent end to end: the
    // edge is the skipped scrub's signature, not migration noise.
    MigrationCheckedRun clean =
        runMigrationChecked("", sim::FaultSite::ScrubSkip);
    EXPECT_EQ(clean.result, cg::core::MigrateResult::Committed);
    EXPECT_EQ(clean.edgeTotal, 0u);
}

TEST(CheckMustFire, MigrationScrubVerifyRepairsTheSkippedScrub)
{
    // With verifyScrubs on, the same injection is audited, repaired,
    // and counted — and the checker stays silent.
    MigrationCheckedRun r = runMigrationChecked(
        "scrub-skip:nth=1", sim::FaultSite::ScrubSkip,
        /*verify_scrubs=*/true);
    EXPECT_EQ(r.result, cg::core::MigrateResult::Committed);
    EXPECT_EQ(r.edgeTotal, 0u);
    EXPECT_GE(r.scrubRepairs, 1u);
    EXPECT_GE(r.detected, 1u);
    EXPECT_GE(r.recovered, 1u);
}

TEST(CheckMustFire, MigrationAbortInjectionIsDetectedAndRecovered)
{
    // Abort at the post-copy boundary: the retry commits, the fault is
    // detected and recovered, and no leak edge appears anywhere along
    // the rollback (undone copies are scrubbed with the rest).
    MigrationCheckedRun r = runMigrationChecked(
        "migration-abort:nth=2", sim::FaultSite::MigrationAbort);
    EXPECT_EQ(r.result, cg::core::MigrateResult::Committed);
    EXPECT_GE(r.aborted, 1u);
    EXPECT_GE(r.detected, 1u);
    EXPECT_GE(r.recovered, 1u);
    EXPECT_EQ(r.edgeTotal, 0u);
}

TEST(CheckMustFire, RttCopyStallInjectionIsDetectedAndRecovered)
{
    MigrationCheckedRun r = runMigrationChecked(
        "rtt-copy-stall:nth=1", sim::FaultSite::RttCopyStall);
    EXPECT_EQ(r.result, cg::core::MigrateResult::Committed);
    EXPECT_GE(r.stalls, 1u);
    EXPECT_GE(r.detected, 1u);
    EXPECT_GE(r.recovered, 1u);
    EXPECT_EQ(r.edgeTotal, 0u);
}

TEST(CheckMustFire, RequestPlumbingBuildsACheckerPerTestbed)
{
    // The --check flag path: run.check makes a Testbed build and
    // attach its own checker.
    {
        Testbed::Config cfg;
        cfg.numCores = 4;
        cfg.mode = RunMode::CoreGapped;
        cfg.run.check = true;
        Testbed bed(cfg);
        ASSERT_NE(bed.checker(), nullptr);
        EXPECT_EQ(bed.machine().checker(), bed.checker());
    }
    {
        Testbed::Config cfg;
        cfg.numCores = 4;
        Testbed bed(cfg);
        EXPECT_EQ(bed.checker(), nullptr);
    }
}
