/**
 * @file
 * Unit tests for the RMM's live-migration RMIs (DESIGN.md section 12):
 * the phase machine and its guards, granule conservation through
 * copy/commit/abort, resumable copies under injected stalls, binding
 * restoration on rollback, and reference relocation at commit.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "rmm/rmm.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"

namespace hw = cg::hw;
namespace sim = cg::sim;
using namespace cg::rmm;
using sim::Proc;
using sim::Tick;
using sim::usec;

namespace {

/** A guest whose exits follow a fixed script. */
struct FakeGuest : GuestContext {
    std::deque<ExitInfo> script;
    hw::ListRegFile lrs;

    Proc<ExitInfo>
    runUntilExit(sim::CoreId core) override
    {
        (void)core;
        co_await sim::Delay{10 * usec};
        if (script.empty()) {
            ExitInfo off;
            off.reason = ExitReason::Shutdown;
            co_return off;
        }
        ExitInfo e = script.front();
        script.pop_front();
        co_return e;
    }

    bool
    injectVirq(hw::IntId id) override
    {
        return lrs.inject(id);
    }

    void forceExit(ExitReason) override {}
    void completeMmio(std::uint64_t) override {}
    bool entered() const override { return false; }
    hw::ListRegFile& listRegs() override { return lrs; }
};

struct MigrationFixture : ::testing::Test {
    sim::Simulation sim;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<Rmm> rmm;
    FakeGuest guest;
    int realm = -1;
    int rec = -1;
    PhysAddr nextGranule = 0x10000;

    void
    boot()
    {
        hw::MachineConfig mcfg;
        mcfg.numCores = 6;
        machine = std::make_unique<hw::Machine>(sim, mcfg);
        RmmConfig cfg;
        cfg.coreGapped = true;
        rmm = std::make_unique<Rmm>(*machine, cfg);
    }

    PhysAddr
    granule()
    {
        PhysAddr a = nextGranule;
        nextGranule += granuleSize;
        EXPECT_EQ(rmm->granuleDelegate(a), RmiStatus::Success);
        return a;
    }

    /** Realm with an RD, one REC, RTT tables, and two data pages. */
    void
    makeRealm()
    {
        ASSERT_EQ(rmm->realmCreate(granule(), RealmParams{"m"}, realm),
                  RmiStatus::Success);
        ASSERT_EQ(rmm->recCreate(realm, granule(), rec),
                  RmiStatus::Success);
        rmm->setGuestContext(realm, rec, &guest);
        for (int lvl = 1; lvl <= 3; ++lvl) {
            ASSERT_EQ(rmm->rttCreate(realm, 0, lvl, granule()),
                      RmiStatus::Success);
        }
        ASSERT_EQ(rmm->dataCreate(realm, 0x0000, granule(), 0xaa),
                  RmiStatus::Success);
        ASSERT_EQ(rmm->dataCreate(realm, 0x1000, granule(), 0xbb),
                  RmiStatus::Success);
        ASSERT_EQ(rmm->realmActivate(realm), RmiStatus::Success);
    }

    /** Dispatch once on @p core so the REC binds to it. The scripted
     * HostKick exit leaves the REC Ready (not Stopped). */
    void
    bindOn(sim::CoreId core)
    {
        ExitInfo kick;
        kick.reason = ExitReason::HostKick;
        guest.script.push_back(kick);
        sim.spawn("enter", [](Rmm& r, int rlm, int rc,
                              sim::CoreId c) -> Proc<void> {
            const RecRunResult res =
                co_await r.recEnter(rlm, rc, RecEnterArgs{}, c);
            EXPECT_EQ(res.status, RmiStatus::Success);
        }(*rmm, realm, rec, core));
        sim.run();
        ASSERT_EQ(rmm->recBinding(realm, rec), core);
    }

    /** Delegate a fresh destination window of @p n granules. */
    PhysAddr
    destWindow(std::size_t n)
    {
        const PhysAddr base = 0x40000000;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(rmm->granuleDelegate(base + i * granuleSize),
                      RmiStatus::Success);
        }
        return base;
    }
};

} // namespace

TEST_F(MigrationFixture, PhaseMachineGuardsLifecycleRmis)
{
    boot();
    makeRealm();
    bindOn(1);
    EXPECT_EQ(rmm->migrationPhase(realm), MigrationPhase::Idle);

    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);
    EXPECT_EQ(rmm->migrationPhase(realm), MigrationPhase::Prepared);
    // Double prepare is refused; so is every other lifecycle RMI.
    EXPECT_EQ(rmm->migratePrepare(realm), RmiStatus::BadState);
    EXPECT_EQ(rmm->recDestroy(realm, rec), RmiStatus::Busy);
    EXPECT_EQ(rmm->recRebind(realm, rec, 3), RmiStatus::Busy);
    EXPECT_EQ(rmm->recEnterCheck(realm, rec, 1), RmiStatus::Busy);
    // Commit before the copy finished is refused.
    EXPECT_EQ(rmm->migrateCommit(realm), RmiStatus::BadState);

    ASSERT_EQ(rmm->migrateAbort(realm), RmiStatus::Success);
    EXPECT_EQ(rmm->migrationPhase(realm), MigrationPhase::Idle);
    EXPECT_EQ(rmm->recEnterCheck(realm, rec, 1), RmiStatus::Success);
    EXPECT_EQ(rmm->migrateAbort(realm), RmiStatus::BadState);
}

TEST_F(MigrationFixture, RealmDestroyBouncesWhileMigrationInFlight)
{
    // A realm whose RECs are all gone can still be prepared (it owns
    // its RD, RTTs and data). Destroying it mid-migration would leave
    // migrationsStarted without a matching commit or abort.
    boot();
    makeRealm();
    ASSERT_EQ(rmm->recDestroy(realm, rec), RmiStatus::Success);
    const auto before = rmm->granules().owned(realm);
    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);

    EXPECT_EQ(rmm->realmDestroy(realm), RmiStatus::Busy);
    ASSERT_NE(rmm->realm(realm), nullptr);
    EXPECT_EQ(rmm->granules().owned(realm), before);

    ASSERT_EQ(rmm->migrateAbort(realm), RmiStatus::Success);
    EXPECT_EQ(rmm->realmDestroy(realm), RmiStatus::Success);
    EXPECT_TRUE(rmm->granules().owned(realm).empty());
    const RmmStats& st = rmm->stats();
    EXPECT_EQ(st.migrationsStarted.value(),
              st.migrationsCommitted.value() +
                  st.migrationsAborted.value());
}

TEST_F(MigrationFixture, GranuleSetRmisBounceWhileMigrationInFlight)
{
    // Prepare snapshots the realm's granules and commit relocates
    // exactly that snapshot: an RMI adding or dropping a granule in
    // between would leave the realm owning a granule outside the
    // destination window, or one its RTT no longer maps.
    boot();
    makeRealm();
    bindOn(1);
    const PhysAddr table = granule();
    const PhysAddr data = granule();
    const Ipa far = 1ull << 30; // needs a new level-2 table
    const Realm* r = rmm->realm(realm);
    const auto before = rmm->granules().owned(realm);
    const std::size_t tables_before = r->rtt.tableCount();
    const std::size_t pages_before = r->rtt.mappedPages();
    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);

    EXPECT_EQ(rmm->rttCreate(realm, far, 2, table), RmiStatus::Busy);
    EXPECT_EQ(rmm->dataCreateUnknown(realm, 0x2000, data),
              RmiStatus::Busy);
    EXPECT_EQ(rmm->dataDestroy(realm, 0x1000), RmiStatus::Busy);
    EXPECT_EQ(rmm->granules().owned(realm), before);
    EXPECT_EQ(rmm->granules().stateOf(table), GranuleState::Delegated);
    EXPECT_EQ(rmm->granules().stateOf(data), GranuleState::Delegated);
    EXPECT_EQ(r->rtt.tableCount(), tables_before);
    EXPECT_EQ(r->rtt.mappedPages(), pages_before);
    EXPECT_EQ(r->rtt.walkLevel(far), 2);
    EXPECT_FALSE(r->rtt.translate(0x2000).has_value());
    EXPECT_TRUE(r->rtt.translate(0x1000).has_value());

    ASSERT_EQ(rmm->migrateAbort(realm), RmiStatus::Success);
    EXPECT_EQ(rmm->rttCreate(realm, far, 2, table), RmiStatus::Success);
    EXPECT_EQ(rmm->dataCreateUnknown(realm, 0x2000, data),
              RmiStatus::Success);
    EXPECT_EQ(rmm->dataDestroy(realm, 0x1000), RmiStatus::Success);
    EXPECT_EQ(r->rtt.tableCount(), tables_before + 1);
    EXPECT_EQ(r->rtt.mappedPages(), pages_before);
    EXPECT_EQ(rmm->granules().owned(realm).size(), before.size() + 1);
}

TEST_F(MigrationFixture, PrepareRequiresGappedActivePausedRealm)
{
    // Without core gapping there is no binding to migrate.
    boot();
    RmmConfig shared;
    rmm = std::make_unique<Rmm>(*machine, shared);
    makeRealm();
    EXPECT_EQ(rmm->migratePrepare(realm), RmiStatus::BadState);

    boot();
    EXPECT_EQ(rmm->migratePrepare(7), RmiStatus::BadState); // no realm
}

TEST_F(MigrationFixture, CopyIsResumableAcrossInjectedStalls)
{
    boot();
    makeRealm();
    bindOn(1);
    const std::size_t total = rmm->granules().owned(realm).size();
    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);
    ASSERT_EQ(rmm->migrationGranuleCount(realm), total);
    const PhysAddr base = destWindow(total);

    // Stall the second copy batch.
    sim.faults().arm(7, sim::FaultPlan::parse("rtt-copy-stall:nth=2"));
    std::size_t copied = 0;
    ASSERT_EQ(rmm->migrateCopy(realm, base, 2, copied),
              RmiStatus::Success);
    EXPECT_EQ(copied, 2u);
    EXPECT_EQ(rmm->migrationPhase(realm), MigrationPhase::Copying);
    // The stalled batch makes no progress and the cursor holds.
    EXPECT_EQ(rmm->migrateCopy(realm, base, 2, copied),
              RmiStatus::Busy);
    EXPECT_EQ(copied, 0u);
    EXPECT_EQ(rmm->stats().migrationStalls.value(), 1u);
    // A different window mid-copy is rejected; the same one resumes.
    EXPECT_EQ(rmm->migrateCopy(realm, base + granuleSize, 0, copied),
              RmiStatus::BadArgs);
    ASSERT_EQ(rmm->migrateCopy(realm, base, 0, copied),
              RmiStatus::Success);
    EXPECT_EQ(copied, total - 2);
    EXPECT_EQ(rmm->migrationPhase(realm), MigrationPhase::Copied);
    EXPECT_EQ(rmm->stats().migrationGranulesCopied.value(), total);
}

TEST_F(MigrationFixture, AbortRestoresBindingsAndReleasesDestCopy)
{
    boot();
    makeRealm();
    bindOn(1);
    const auto before = rmm->granules().owned(realm);
    const Tick last_rebind_before = 0; // never rebound

    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);
    const PhysAddr base = destWindow(before.size());
    std::size_t copied = 0;
    ASSERT_EQ(rmm->migrateCopy(realm, base, 0, copied),
              RmiStatus::Success);
    ASSERT_EQ(rmm->migrateBindRec(realm, rec, 4), RmiStatus::Success);
    EXPECT_EQ(rmm->recBinding(realm, rec), 4);
    EXPECT_EQ(rmm->dedicatedOwner(4), realm);

    ASSERT_EQ(rmm->migrateAbort(realm), RmiStatus::Success);
    // Binding (and its rate-limiter clock) restored verbatim.
    EXPECT_EQ(rmm->recBinding(realm, rec), 1);
    EXPECT_EQ(rmm->dedicatedOwner(1), realm);
    EXPECT_EQ(rmm->dedicatedOwner(4), -1);
    EXPECT_EQ(rmm->rebindAllowedAt(realm, rec), last_rebind_before);
    // The realm owns exactly its source granules again; the whole
    // destination window is back to bare Delegated.
    EXPECT_EQ(rmm->granules().owned(realm), before);
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(rmm->granules().stateOf(base + i * granuleSize),
                  GranuleState::Delegated);
    }
    EXPECT_EQ(rmm->stats().migrationsAborted.value(), 1u);
}

TEST_F(MigrationFixture, CommitRequiresEveryBoundRecMoved)
{
    boot();
    makeRealm();
    bindOn(1);
    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);
    const PhysAddr base = destWindow(rmm->migrationGranuleCount(realm));
    std::size_t copied = 0;
    ASSERT_EQ(rmm->migrateCopy(realm, base, 0, copied),
              RmiStatus::Success);
    // A REC still bound to a source core blocks the commit.
    EXPECT_EQ(rmm->migrateCommit(realm), RmiStatus::BadState);
    ASSERT_EQ(rmm->migrateBindRec(realm, rec, 4), RmiStatus::Success);
    // One move per REC per migration.
    EXPECT_EQ(rmm->migrateBindRec(realm, rec, 5), RmiStatus::BadState);
    EXPECT_EQ(rmm->migrateCommit(realm), RmiStatus::Success);
}

TEST_F(MigrationFixture, CommitRelocatesEveryReferenceAndFreesSource)
{
    boot();
    makeRealm();
    bindOn(1);
    const auto before = rmm->granules().owned(realm);
    const Realm* r = rmm->realm(realm);
    const std::size_t tables_before = r->rtt.tableCount();
    const std::size_t pages_before = r->rtt.mappedPages();
    ASSERT_TRUE(r->rtt.translate(0x1000).has_value());

    ASSERT_EQ(rmm->migratePrepare(realm), RmiStatus::Success);
    const PhysAddr base = destWindow(before.size());
    std::size_t copied = 0;
    ASSERT_EQ(rmm->migrateCopy(realm, base, 0, copied),
              RmiStatus::Success);
    ASSERT_EQ(rmm->migrateBindRec(realm, rec, 4), RmiStatus::Success);
    ASSERT_EQ(rmm->migrateCommit(realm), RmiStatus::Success);

    // Same shape, all within the destination window, same states in
    // the same order (the copy preserves the snapshot's order).
    const auto after = rmm->granules().owned(realm);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].first, base + i * granuleSize);
        EXPECT_EQ(after[i].second, before[i].second);
    }
    // Every source granule scrubbed back to Delegated (undelegatable).
    for (const auto& [addr, state] : before) {
        (void)state;
        EXPECT_EQ(rmm->granules().stateOf(addr),
                  GranuleState::Delegated);
        EXPECT_EQ(rmm->granuleUndelegate(addr), RmiStatus::Success);
    }
    // The RD and REC granule references moved with the copy.
    EXPECT_EQ(rmm->granules().stateOf(r->rdGranule), GranuleState::Rd);
    EXPECT_EQ(rmm->granules().ownerOf(r->rdGranule), realm);
    // The RTT survived relocation structurally intact and translates
    // to destination-window pages.
    EXPECT_EQ(r->rtt.tableCount(), tables_before);
    EXPECT_EQ(r->rtt.mappedPages(), pages_before);
    const auto pa = r->rtt.translate(0x1000);
    ASSERT_TRUE(pa.has_value());
    EXPECT_GE(*pa, base);
    EXPECT_LT(*pa, base + before.size() * granuleSize);
    // The realm runs on: enter on the new core works, the old core
    // is nobody's, and the migration is closed out.
    EXPECT_EQ(rmm->recEnterCheck(realm, rec, 4), RmiStatus::Success);
    EXPECT_EQ(rmm->recEnterCheck(realm, rec, 1), RmiStatus::WrongCore);
    EXPECT_EQ(rmm->migrationPhase(realm), MigrationPhase::Idle);
    EXPECT_EQ(rmm->stats().migrationsCommitted.value(), 1u);
}

TEST_F(MigrationFixture, FaultSiteNamesAreListedAndParsed)
{
    // The new sites parse, round-trip their names, and appear in the
    // --faults help list.
    const auto specs = sim::FaultPlan::parse(
        "migration-abort:nth=1;rtt-copy-stall:p=0.5");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].site, sim::FaultSite::MigrationAbort);
    EXPECT_EQ(specs[1].site, sim::FaultSite::RttCopyStall);
    const std::string all = sim::faultSiteListText();
    EXPECT_NE(all.find("migration-abort"), std::string::npos);
    EXPECT_NE(all.find("rtt-copy-stall"), std::string::npos);
    // One line per site.
    std::size_t lines = 0;
    for (char c : all)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, static_cast<std::size_t>(sim::numFaultSites));
}
