/**
 * @file
 * Pins CoreUarch's warm-up memo to the unmemoized computation.
 *
 * CoreUarch::run() and warmupCost() return at once when the same
 * domain runs again with no larger footprint and no structure has lost
 * an entry since its last run (DESIGN.md section 6, item 8). The
 * property test drives a CoreUarch and a twin through long random
 * sequences of runs, warm-up queries, direct touches, flushes,
 * mitigation flushes and checker (un)binding; the twin runs the
 * structure operations that run() and warmupCost() perform with no
 * memo. After each step every warm-up cost, every structure's census
 * and each side's checker must agree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "check/checker.hh"
#include "hw/costs.hh"
#include "hw/uarch.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace hw = cg::hw;
namespace sim = cg::sim;
using sim::DomainId;
using sim::Tick;

namespace {

/** CoreUarch::run() as it reads with no memo. */
void
plainRun(hw::CoreUarch& u, DomainId d, std::size_t footprint)
{
    u.l1d.touch(d, footprint);
    u.l1i.touch(d, std::max<std::size_t>(1, footprint / 4));
    u.l2.touch(d, footprint);
    u.tlb.touch(d, std::max<std::size_t>(1, footprint / 64));
    u.btb.touch(d, std::max<std::size_t>(1, footprint / 2));
    u.storeBuffer.touch(d, u.storeBuffer.capacity());
}

/** CoreUarch::warmupCost() as it reads with no memo. */
Tick
plainWarmup(const hw::CoreUarch& u, DomainId d, std::size_t footprint)
{
    Tick total = 0;
    total += u.l1d.warmupCost(d, footprint);
    total += u.l1i.warmupCost(d, std::max<std::size_t>(1, footprint / 4));
    total += u.l2.warmupCost(d, footprint) / 4;
    total += u.tlb.warmupCost(d, std::max<std::size_t>(1, footprint / 64));
    total += u.btb.warmupCost(d, std::max<std::size_t>(1, footprint / 2));
    return total;
}

/** One CoreUarch with its own checker, bound structure by structure. */
struct Side {
    sim::EventQueue queue;
    cg::check::IsolationChecker checker{queue};
    hw::CoreUarch uarch;
    std::array<int, 6> sids{};

    explicit Side(const hw::Costs& costs) : uarch(costs)
    {
        const std::vector<hw::TaggedStructure*> all = uarch.all();
        for (std::size_t i = 0; i < all.size(); ++i)
            sids[i] = checker.registerStructure(
                "core0." + all[i]->name(), 0);
    }

    void
    bind(std::size_t i, bool on)
    {
        uarch.all()[i]->bindChecker(on ? &checker : nullptr,
                                    on ? sids[i] : -1);
    }
};

constexpr DomainId domains[] = {
    sim::hostDomain, sim::monitorDomain, sim::firstVmDomain,
    sim::firstVmDomain + 1, sim::firstVmDomain + 2};

constexpr std::size_t footprints[] = {0,    1,     7,     64,    300,
                                      1024, 4096,  16384, 40000};

} // namespace

TEST(CoreUarchMemo, MatchesUnmemoized)
{
    hw::Costs costs;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        Side memo(costs);
        Side plain(costs);
        sim::Rng rng(seed);
        DomainId last_d = domains[0];
        std::size_t last_f = 64;
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t op = rng.uniformInt(0, 99);
            // Half the runs and queries repeat the last run's domain
            // at a footprint up to twice its own: the memo's hits and
            // its footprint check.
            const bool repeat = rng.chance(0.5);
            const DomainId d =
                repeat ? last_d : domains[rng.uniformInt(0, 4)];
            const std::size_t f =
                repeat ? last_f * rng.uniformInt(0, 4) / 2 +
                             rng.uniformInt(0, 1)
                       : footprints[rng.uniformInt(0, 8)];
            const std::size_t s = rng.uniformInt(0, 5);
            if (op < 35) {
                memo.uarch.run(d, f);
                plainRun(plain.uarch, d, f);
                last_d = d;
                last_f = f;
            } else if (op < 70) {
                ASSERT_EQ(memo.uarch.warmupCost(d, f),
                          plainWarmup(plain.uarch, d, f))
                    << "seed " << seed << " step " << step;
            } else if (op < 82) {
                const std::size_t n = footprints[rng.uniformInt(0, 8)];
                memo.uarch.all()[s]->touch(d, n);
                plain.uarch.all()[s]->touch(d, n);
            } else if (op < 87) {
                memo.uarch.all()[s]->flushDomain(d);
                plain.uarch.all()[s]->flushDomain(d);
            } else if (op < 90) {
                memo.uarch.all()[s]->flushAll();
                plain.uarch.all()[s]->flushAll();
            } else if (op < 94) {
                memo.uarch.mitigationFlush();
                plain.uarch.mitigationFlush();
            } else {
                // Checkers stay bound for stretches of about 25 steps.
                const bool on = !memo.uarch.all()[s]->checked();
                memo.bind(s, on);
                plain.bind(s, on);
            }
            for (const DomainId q : domains) {
                for (const std::size_t g : footprints) {
                    ASSERT_EQ(memo.uarch.warmupCost(q, g),
                              plainWarmup(plain.uarch, q, g))
                        << "seed " << seed << " step " << step
                        << " domain " << q << " footprint " << g;
                }
                for (std::size_t i = 0; i < 6; ++i) {
                    ASSERT_EQ(memo.uarch.all()[i]->auditEntriesOf(q),
                              plain.uarch.all()[i]->auditEntriesOf(q))
                        << "seed " << seed << " step " << step
                        << " structure " << i << " domain " << q;
                }
            }
            for (std::size_t i = 0; i < 6; ++i)
                ASSERT_EQ(memo.uarch.all()[i]->used(),
                          plain.uarch.all()[i]->used());
            ASSERT_EQ(memo.checker.eventCount(), plain.checker.eventCount())
                << "seed " << seed << " step " << step;
            ASSERT_EQ(memo.checker.dumpText(), plain.checker.dumpText());
        }
        // Both checkers saw real traffic, not an empty stream.
        EXPECT_GT(memo.checker.eventCount(), 1000u);
    }
}
