/**
 * @file
 * Property test of the host's granule lifecycle (DESIGN.md §12) over
 * hundreds of realms on one core-gapped testbed. Seeded random
 * operations run one at a time, each to completion:
 *
 *  - create a CVM whose guest page-faults while it runs; a start that
 *    rolls back (an injected hotplug-offline-fail, twice) is dropped
 *    with Testbed::destroyVm while its realm is still live;
 *  - migrate one: commits, attempts aborted by injection and retried,
 *    and migrations rolled back once their attempts run out;
 *  - destroy one, by teardown or by terminate.
 *
 * Page faults also give up under injected transient RMI errors, and
 * bounce off migrations in flight. After every operation, once no
 * guest is inside a page fault:
 *
 *  - every granule the monitor tracks is owned by a live realm, so
 *    none is Delegated without an owner;
 *  - the host's page allocator has exactly those pages out, and the
 *    page it would hand out next is one the monitor does not track.
 *
 * When the last realm is gone nothing is tracked and every page is
 * back.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "core/migration.hh"
#include "core/planner.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace host = cg::host;
namespace guest = cg::guest;
namespace rmm = cg::rmm;
using namespace cg::workloads;
using cg::core::CorePlanner;
using cg::core::GappedVm;
using cg::core::MigrateResult;
using cg::core::MigrationConfig;
using cg::core::MigrationController;
using rmm::GranuleState;
using sim::Proc;
using sim::Tick;
using sim::msec;
using sim::usec;

namespace {

constexpr int kNumCores = 12;
constexpr int kHostCores = 2;
constexpr int kCoresPerVm = 2;
constexpr std::size_t kMaxLive = 4;
constexpr int kCreates = 300;

/** Every site whose recovery path delegates or undelegates. */
constexpr const char* kPlan = "migration-abort:p=0.15:max=0;"
                              "rtt-copy-stall:p=0.2:max=0;"
                              "hotplug-offline-fail:p=0.15:max=0;"
                              "rmi-transient-error:p=0.3:max=0";

/** One live CVM and the count of its vCPUs inside a page fault. */
struct Slot {
    VmInstance* vm = nullptr;
    int inFault = 0;
};

/** Page-fault @p pages fresh pages, computing in between, then shut
 * down. @p in_fault counts the faults in flight. */
Proc<void>
faultingGuest(guest::VCpu& v, int idx, int pages, Tick think,
              int& in_fault)
{
    for (int p = 0; p < pages; ++p) {
        ++in_fault;
        co_await v.pageFault(0x40000000ull +
                             static_cast<std::uint64_t>(idx * 64 + p) *
                                 rmm::granuleSize);
        --in_fault;
        co_await sim::Compute{think};
    }
    co_await v.shutdown();
}

Proc<void>
startOp(GappedVm& g, bool& ok, bool& done)
{
    ok = co_await g.start();
    done = true;
}

Proc<void>
migrateOp(MigrationController& c, std::vector<sim::CoreId> dest,
          MigrateResult& res, bool& done)
{
    res = dest.empty() ? co_await c.migrate()
                       : co_await c.migrateTo(std::move(dest));
    done = true;
}

Proc<void>
destroyOp(GappedVm& g, bool terminate, bool& done)
{
    if (terminate)
        co_await g.terminate();
    else
        co_await g.teardown();
    done = true;
}

/** Run @p bed until @p done, for at most ten simulated seconds. */
bool
runUntil(Testbed& bed, const bool& done)
{
    const Tick limit = bed.sim().now() + 10 * sim::sec;
    while (!done && bed.sim().now() < limit)
        bed.run(bed.sim().now() + 1 * msec);
    return done;
}

/** The conservation properties listed in the file comment. */
::testing::AssertionResult
conserved(Testbed& bed, const std::vector<std::unique_ptr<Slot>>& live)
{
    const rmm::GranuleTracker& g = bed.rmm().granules();
    const std::size_t unowned = g.countInState(GranuleState::Delegated);
    if (unowned != 0) {
        return ::testing::AssertionFailure()
               << unowned << " granules Delegated without an owner";
    }
    std::size_t owned = 0;
    for (const auto& s : live)
        owned += g.owned(s->vm->kvm->realmId()).size();
    const std::size_t tracked = g.trackedCount();
    if (tracked != owned) {
        return ::testing::AssertionFailure()
               << tracked << " granules tracked, live realms own "
               << owned;
    }
    host::Kernel& k = bed.kernel();
    if (k.pagesInUse() != tracked) {
        return ::testing::AssertionFailure()
               << k.pagesInUse() << " pages out, " << tracked
               << " granules tracked";
    }
    const std::uint64_t next = k.allocPage();
    k.freePage(next);
    if (g.stateOf(next) != GranuleState::Undelegated) {
        return ::testing::AssertionFailure()
               << "the allocator's next page 0x" << std::hex << next
               << " is tracked";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(GranuleLifecycleProperty, NothingOutlivesItsRealm)
{
    Testbed::Config cfg;
    cfg.numCores = kNumCores;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 0x9a7e;
    Testbed bed(cfg);
    bed.sim().faults().arm(0x5eed, sim::FaultPlan::parse(kPlan));
    CorePlanner planner(bed.machine(),
                        host::CpuMask::firstN(kHostCores));

    std::mt19937_64 rng(0x1f3);
    std::vector<std::unique_ptr<Slot>> live;
    int creates = 0, failed_starts = 0, teardowns = 0, terminates = 0;
    int committed = 0, rolled_back = 0;
    std::uint64_t give_ups = 0;

    const auto settle = [&] {
        // A fault between its delegate and its RTT or data call holds
        // a granule no realm owns yet; let every one finish.
        const auto in_fault = [&] {
            for (const auto& s : live) {
                if (s->inFault != 0)
                    return true;
            }
            return false;
        };
        const Tick limit = bed.sim().now() + 1 * sim::sec;
        while (in_fault() && bed.sim().now() < limit)
            bed.run(bed.sim().now() + 100 * usec);
        return !in_fault();
    };

    const auto create = [&] {
        auto cores = planner.reserve(kCoresPerVm);
        if (!cores)
            return;
        auto slot = std::make_unique<Slot>();
        guest::VmConfig vcfg;
        vcfg.tickPeriod = 0;
        slot->vm = &bed.createVmOn(
            sim::strFormat("g%d", creates), *cores,
            host::CpuMask::single(creates % kHostCores), kCoresPerVm,
            vcfg, &planner);
        ++creates;
        for (int i = 0; i < kCoresPerVm; ++i) {
            slot->vm->vcpu(i).startGuest(
                "w", faultingGuest(slot->vm->vcpu(i), i,
                                   2 + static_cast<int>(rng() % 5),
                                   (200 + rng() % 800) * usec,
                                   slot->inFault));
        }
        bool ok = false, done = false;
        bed.sim().spawn("start", startOp(*slot->vm->gapped, ok, done));
        ASSERT_TRUE(runUntil(bed, done)) << "start wedged";
        if (!ok) {
            ++failed_starts;
            bed.destroyVm(*slot->vm); // its realm is still live
            return;
        }
        live.push_back(std::move(slot));
    };

    const auto migrate = [&] {
        Slot& s = *live[rng() % live.size()];
        MigrationConfig mcfg;
        mcfg.maxAttempts = rng() % 2 == 0 ? 1 : 3;
        MigrationController ctrl(*s.vm->gapped, nullptr, mcfg);
        std::vector<sim::CoreId> dest;
        if (rng() % 2 == 0) {
            if (auto fresh = planner.reserve(kCoresPerVm)) {
                planner.release(*fresh);
                dest = *fresh;
            }
        }
        MigrateResult res = MigrateResult::Refused;
        bool done = false;
        bed.sim().spawn("migrate",
                        migrateOp(ctrl, std::move(dest), res, done));
        ASSERT_TRUE(runUntil(bed, done)) << "migration wedged";
        committed += res == MigrateResult::Committed ? 1 : 0;
        rolled_back += res == MigrateResult::RolledBack ? 1 : 0;
    };

    const auto destroy = [&](std::size_t idx) {
        Slot& s = *live[idx];
        const bool terminate =
            !s.vm->kvm->shutdownGate().isOpen() || rng() % 4 == 0;
        bool done = false;
        bed.sim().spawn("destroy",
                        destroyOp(*s.vm->gapped, terminate, done));
        ASSERT_TRUE(runUntil(bed, done)) << "destroy wedged";
        (terminate ? terminates : teardowns) += 1;
        give_ups += s.vm->kvm->stats().rmiGiveUps.value();
        bed.destroyVm(*s.vm);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    };

    for (int op = 0; creates < kCreates; ++op) {
        const std::uint64_t dice = rng() % 100;
        const char* name = "create";
        if (live.size() < kMaxLive && (dice < 45 || live.empty())) {
            create();
        } else if (dice < 70) {
            name = "migrate";
            migrate();
        } else {
            name = "destroy";
            destroy(rng() % live.size());
        }
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        ASSERT_TRUE(settle()) << "a page fault never finished";
        ASSERT_TRUE(conserved(bed, live))
            << "after op " << op << " (" << name << ")";
    }
    while (!live.empty()) {
        destroy(live.size() - 1);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        ASSERT_TRUE(conserved(bed, live)) << "while draining";
    }
    EXPECT_EQ(bed.rmm().granules().trackedCount(), 0u);
    EXPECT_EQ(bed.kernel().pagesInUse(), 0u);

    // The run reached every path it claims to.
    const sim::FaultPlan& faults = bed.sim().faults();
    EXPECT_GE(creates, kCreates);
    EXPECT_GE(failed_starts, 1);
    EXPECT_GE(teardowns, 1);
    EXPECT_GE(terminates, 1);
    EXPECT_GE(committed, 1);
    EXPECT_GE(rolled_back, 1);
    EXPECT_GE(faults.injected(sim::FaultSite::MigrationAbort), 1u);
    EXPECT_GE(faults.injected(sim::FaultSite::RttCopyStall), 1u);
    EXPECT_GE(give_ups, 1u);
}
