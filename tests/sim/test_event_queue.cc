/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace cg::sim {

/** Read-only view of EventQueue's two ordering tiers (a friend). */
struct EventQueueInspector {
    const EventQueue& q;

    std::size_t runSize() const { return q.sorted_.size(); }
    std::size_t runHead() const { return q.sortedHead_; }
    std::size_t heapSize() const { return q.heap_.size(); }
    std::uint64_t runTailSeq() const { return q.sorted_.back().seq; }
    std::size_t staleCounted() const { return q.stale_; }

    /** Entries still held in either tier whose event is not pending. */
    std::size_t
    staleHeld() const
    {
        std::size_t n = 0;
        for (std::size_t i = q.sortedHead_; i < q.sorted_.size(); ++i)
            n += q.entryLive(q.sorted_[i]) ? 0 : 1;
        for (const auto& e : q.heap_)
            n += q.entryLive(e) ? 0 : 1;
        return n;
    }
};

} // namespace cg::sim

using namespace cg::sim;

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30 * nsec, [&] { order.push_back(3); });
    q.schedule(10 * nsec, [&] { order.push_back(1); });
    q.schedule(20 * nsec, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30 * nsec);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(5 * nsec, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100 * nsec, [&] {
        q.scheduleIn(50 * nsec, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150 * nsec);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10 * nsec, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue q;
    EventId id = q.schedule(10 * nsec, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(invalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10 * nsec, [&] { ++count; });
    q.schedule(20 * nsec, [&] { ++count; });
    q.schedule(30 * nsec, [&] { ++count; });
    q.run(20 * nsec); // events at exactly the limit still run
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20 * nsec);
    q.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunToLimitAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.run(5 * usec);
    EXPECT_EQ(q.now(), 5 * usec);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            q.scheduleIn(1 * nsec, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 9 * nsec);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1 * nsec, [&] { ++count; });
    q.schedule(2 * nsec, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, PendingCountTracksCancellations)
{
    EventQueue q;
    EventId a = q.schedule(1 * nsec, [] {});
    q.schedule(2 * nsec, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInsideEventCallback)
{
    EventQueue q;
    bool second_ran = false;
    EventId second = q.schedule(20 * nsec, [&] { second_ran = true; });
    q.schedule(10 * nsec, [&] { q.cancel(second); });
    q.run();
    EXPECT_FALSE(second_ran);
}

// Regression: the pre-slot-pool queue let cancel() of an id whose event
// had already executed "succeed", undercounting pending() and leaking a
// lazy-delete set entry.
TEST(EventQueue, CancelAfterExecutionReturnsFalse)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10 * nsec, [&] { ran = true; });
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);

    // pending() must stay exact afterwards: a later event is still
    // counted and still runs.
    bool later = false;
    q.schedule(20 * nsec, [&] { later = true; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.cancel(id)); // still false on repeat
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(later);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelAfterStepPopReturnsFalseTwice)
{
    EventQueue q;
    EventId id = q.schedule(1 * nsec, [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelOwnIdInsideCallbackReturnsFalse)
{
    EventQueue q;
    EventId self = invalidEventId;
    bool cancelled_self = true;
    self = q.schedule(5 * nsec, [&] {
        cancelled_self = q.cancel(self);
    });
    q.run();
    EXPECT_FALSE(cancelled_self);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StaleIdOfRecycledSlotDoesNotCancelNewEvent)
{
    EventQueue q;
    // Consume a slot, then schedule again (recycling it). The stale id
    // must neither cancel nor disturb the new occupant.
    EventId old_id = q.schedule(1 * nsec, [] {});
    q.run();
    bool ran = false;
    EventId new_id = q.schedule(2 * nsec, [&] { ran = true; });
    EXPECT_NE(old_id, new_id);
    EXPECT_FALSE(q.cancel(old_id));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, PendingStaysExactUnderScheduleCancelChurn)
{
    EventQueue q;
    int ran = 0;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(Tick(i + 1) * nsec, [&] { ++ran; }));
    // Cancel every third; re-cancel to confirm idempotence.
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        EXPECT_TRUE(q.cancel(ids[i]));
        EXPECT_FALSE(q.cancel(ids[i]));
        ++cancelled;
    }
    EXPECT_EQ(q.pending(), 100u - cancelled);
    q.run();
    EXPECT_EQ(static_cast<std::size_t>(ran), 100u - cancelled);
    EXPECT_EQ(q.pending(), 0u);
    // Post-drain, every id is dead.
    for (EventId id : ids)
        EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, RunLimitEventsExactlyAtLimitRun)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10 * nsec, [&] { order.push_back(1); });
    q.schedule(20 * nsec, [&] { order.push_back(2); });
    q.schedule(20 * nsec, [&] { order.push_back(3); });
    q.schedule(20 * nsec + 1, [&] { order.push_back(4); });
    q.run(20 * nsec);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 20 * nsec);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunLimitAdvancesNowWhenQueueDrainsEarly)
{
    EventQueue q;
    bool ran = false;
    q.schedule(3 * nsec, [&] { ran = true; });
    q.run(90 * nsec); // drains at t=3, then jumps to the limit
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 90 * nsec);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunWithEarlierLimitNeverRewindsTime)
{
    EventQueue q;
    bool ran = false;
    q.schedule(100 * nsec, [&] { ran = true; });
    q.run(50 * nsec);
    EXPECT_EQ(q.now(), 50 * nsec);
    q.run(20 * nsec); // an event is pending past both limits
    EXPECT_EQ(q.now(), 50 * nsec);
    q.step();
    EXPECT_TRUE(ran);
    q.run(20 * nsec); // drained
    EXPECT_EQ(q.now(), 100 * nsec);
}

TEST(EventQueue, RunWithoutLimitLeavesNowAtLastEvent)
{
    EventQueue q;
    q.schedule(7 * nsec, [] {});
    q.run();
    EXPECT_EQ(q.now(), 7 * nsec);
}

// Arrivals before the run's tail are inserted into its front (with no
// consumed gap, by shifting the suffix up); interleaved with tail
// appends, the pop order must still be the strict (when, insertion)
// total order.
TEST(EventQueue, RunAheadIsFalseOutsideRun)
{
    EventQueue q;
    EXPECT_FALSE(q.running());
    EXPECT_FALSE(q.runAhead(10 * nsec));
    // Nor inside step(): its caller acts between single events.
    bool ahead = true, running = true;
    q.schedule(5 * nsec, [&] {
        running = q.running();
        ahead = q.runAhead(10 * nsec);
    });
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(running);
    EXPECT_FALSE(ahead);
    EXPECT_EQ(q.now(), 5 * nsec);
}

TEST(EventQueue, RunAheadStopsAtTheRunLimit)
{
    EventQueue q;
    bool past = true, at = false;
    Tick after = 0;
    q.schedule(10 * nsec, [&] {
        at = q.runAhead(100 * nsec); // the limit itself still runs
        after = q.now();
        past = q.runAhead(101 * nsec);
    });
    EXPECT_EQ(q.run(100 * nsec), 100 * nsec);
    EXPECT_FALSE(past);
    EXPECT_TRUE(at);
    EXPECT_EQ(after, 100 * nsec);
    EXPECT_FALSE(q.running());
}

TEST(EventQueue, RunAheadLosesATieToAPendingEvent)
{
    EventQueue q;
    std::vector<int> order;
    bool tie = true, before = false;
    q.schedule(10 * nsec, [&] {
        before = q.runAhead(49 * nsec);
        tie = q.runAhead(50 * nsec); // the event at 50 was first
        order.push_back(1);
    });
    q.schedule(50 * nsec, [&] { order.push_back(2); });
    q.run();
    EXPECT_FALSE(tie);
    EXPECT_TRUE(before);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 50 * nsec);
}

TEST(EventQueue, RunAheadPassesCancelledEntries)
{
    EventQueue q;
    bool ahead = false;
    int cancelled_ran = 0;
    q.schedule(10 * nsec, [&] { ahead = q.runAhead(60 * nsec); });
    const EventId a = q.schedule(20 * nsec, [&] { ++cancelled_ran; });
    const EventId b = q.schedule(60 * nsec, [&] { ++cancelled_ran; });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_TRUE(q.cancel(b));
    q.run();
    EXPECT_TRUE(ahead);
    EXPECT_EQ(cancelled_ran, 0);
    EXPECT_EQ(q.now(), 60 * nsec);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NestedRunRestoresTheOuterRunState)
{
    EventQueue q;
    bool inner_past = true, inner_at = false, outer_after = false;
    bool running_after = false;
    q.schedule(10 * nsec, [&] {
        q.schedule(15 * nsec, [&] {
            inner_at = q.runAhead(20 * nsec);
            inner_past = q.runAhead(30 * nsec); // inner limit is 20
        });
        q.run(20 * nsec);
        running_after = q.running();
        outer_after = q.runAhead(90 * nsec); // outer limit is 100
    });
    q.run(100 * nsec);
    EXPECT_FALSE(inner_past);
    EXPECT_TRUE(inner_at);
    EXPECT_TRUE(running_after);
    EXPECT_TRUE(outer_after);
    EXPECT_FALSE(q.running());
    EXPECT_EQ(q.now(), 100 * nsec);
}

TEST(EventQueue, TieBreakAcrossInOrderAndOutOfOrderArrivals)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(50 * nsec, [&] { order.push_back(0); }); // starts the run
    q.schedule(10 * nsec, [&] { order.push_back(1); }); // suffix shift
    q.schedule(50 * nsec, [&] { order.push_back(2); }); // tail (tie w/ 0)
    q.schedule(10 * nsec, [&] { order.push_back(3); }); // suffix (tie w/ 1)
    q.schedule(60 * nsec, [&] { order.push_back(4); }); // tail
    q.schedule(30 * nsec, [&] { order.push_back(5); }); // suffix shift
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 0, 2, 4}));
}

TEST(EventQueue, DeterministicOrderUnderHeavyChurnWithCancels)
{
    // Two identical schedules of interleaved in/out-of-order events
    // with cancellations must execute in the identical order.
    auto run_once = [] {
        EventQueue q;
        std::vector<int> order;
        std::vector<EventId> ids;
        for (int i = 0; i < 200; ++i) {
            // Times bounce around to mix the sorted run and the heap.
            const Tick t = Tick((i * 37) % 101) * nsec;
            ids.push_back(
                q.schedule(t, [&order, i] { order.push_back(i); }));
        }
        for (int i = 0; i < 200; i += 5)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
        return order;
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 160u);
}

namespace {

/** How often each placement path and the stale compaction ran, so a
 * sequence that never reaches one cannot pass vacuously. */
struct Paths {
    std::size_t restarts = 0; ///< push into a fully consumed run
    std::size_t tail = 0;     ///< append at or after a non-empty run's tail
    std::size_t gap = 0;      ///< front window, through the consumed gap
    std::size_t suffix = 0;   ///< front window, shifting the suffix up
    std::size_t heap = 0;
    std::size_t compactions = 0;
    std::size_t heapCompactions = 0; ///< compactions that shrank the heap
};

/**
 * Drives one EventQueue with a seeded random mix of schedules, cancels,
 * run(limit) and step(), from the top level and from inside callbacks,
 * and checks it after every operation against a std::set of pending
 * (when, seq) pairs: execution order, now(), pending() and every
 * cancel() result.
 */
class ReferenceModel
{
  public:
    explicit ReferenceModel(std::uint64_t seed) : rng_(seed) {}

    void
    run(std::size_t ops)
    {
        for (std::size_t i = 0; i < ops && !::testing::Test::HasFailure();
             ++i) {
            topLevelOp();
            check();
        }
        q_.run();
        check();
        EXPECT_TRUE(ref_.empty());
    }

    const Paths& paths() const { return paths_; }
    std::size_t executed() const { return executed_; }

  private:
    std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

    Tick
    randomDelay()
    {
        const std::uint64_t r = draw(100);
        if (r < 25)
            return 0;
        if (r < 60)
            return 1 + draw(50); // a few ns: among the next few events
        if (r < 99)
            return (1 + draw(100)) * usec; // timers
        return 3600 * sec;
    }

    void
    schedule(Tick delay)
    {
        const Tick when = q_.now() + delay;
        const std::uint64_t seq = whenOf_.size();
        const EventQueueInspector in{q_};
        const std::size_t size = in.runSize();
        const std::size_t head = in.runHead();
        const std::size_t heap = in.heapSize();
        ids_.push_back(q_.schedule(when, [this, seq] { onRun(seq); }));
        whenOf_.push_back(when);
        ref_.insert({when, seq});

        if (in.heapSize() == heap + 1)
            ++paths_.heap;
        else if (head == size)
            ++paths_.restarts;
        else if (in.runHead() + 1 == head)
            ++paths_.gap;
        else if (in.runTailSeq() == seq)
            ++paths_.tail;
        else
            ++paths_.suffix;
    }

    /** Cancel any id ever issued: pending, already run, or already
     * cancelled. Half the picks are among the 64 newest, which are
     * mostly still pending. */
    void
    cancelRandom()
    {
        const std::uint64_t n = whenOf_.size();
        if (n == 0)
            return;
        cancel(draw(2) ? n - 1 - draw(std::min<std::uint64_t>(n, 64))
                       : draw(n));
    }

    void
    cancel(std::uint64_t seq)
    {
        const auto key = std::make_pair(whenOf_[seq], seq);
        const bool expect = ref_.count(key) != 0;
        const EventQueueInspector in{q_};
        const std::size_t stale = in.staleCounted();
        const std::size_t heap = in.heapSize();
        EXPECT_EQ(q_.cancel(ids_[seq]), expect) << "seq " << seq;
        if (!expect)
            return;
        ref_.erase(key);
        if (in.staleCounted() < stale + 1) {
            ++paths_.compactions;
            if (in.heapSize() < heap)
                ++paths_.heapCompactions;
        }
        EXPECT_LE(in.staleHeld(), 2 * q_.pending() + 64);
    }

    /** Like KVM_RUN: a far-future guard event, cancelled by the next. */
    void
    guestRun()
    {
        if (guard_ && ref_.count({whenOf_[*guard_], *guard_}))
            cancel(*guard_);
        guard_ = whenOf_.size();
        schedule(3600 * sec);
    }

    void
    onRun(std::uint64_t seq)
    {
        ++executed_;
        const auto key = std::make_pair(whenOf_[seq], seq);
        if (ref_.empty() || *ref_.begin() != key) {
            ADD_FAILURE() << "ran seq " << seq << " at " << whenOf_[seq]
                          << " out of (when, seq) order";
        }
        EXPECT_EQ(q_.now(), whenOf_[seq]);
        ref_.erase(key);
        now_ = whenOf_[seq];

        const std::uint64_t r = draw(8);
        if (r < 4) {
            schedule(randomDelay());
        } else if (r == 4) {
            schedule(randomDelay());
            schedule(randomDelay());
        } else if (r == 5) {
            cancelRandom();
        } else if (r == 6) {
            cancelRandom();
            schedule(randomDelay());
        }
        check();
    }

    void
    topLevelOp()
    {
        const std::uint64_t r = draw(100);
        if (r < 35) {
            schedule(randomDelay());
        } else if (r < 50) {
            guestRun();
        } else if (r < 52) {
            // A burst of timers: past the front window, they take the
            // heap. The next burst cancels what is left of this one.
            for (std::uint64_t seq : burst_) {
                if (ref_.count({whenOf_[seq], seq}))
                    cancel(seq);
            }
            burst_.clear();
            for (int i = 0; i < 48; ++i) {
                burst_.push_back(whenOf_.size());
                schedule((1 + draw(100)) * usec);
            }
        } else if (r < 64) {
            cancelRandom();
        } else if (r < 84) {
            runTo(randomLimit());
        } else if (r < 99 || draw(10) != 0) {
            const bool expect = !ref_.empty();
            EXPECT_EQ(q_.step(), expect);
        } else {
            runTo(maxTick);
        }
    }

    Tick
    randomLimit()
    {
        const Tick now = q_.now();
        if (draw(5) == 0)
            return now - std::min<Tick>(now, draw(100)); // not after now
        return now + (draw(2) ? draw(60) : draw(150) * usec);
    }

    void
    runTo(Tick limit)
    {
        q_.run(limit);
        if (limit != maxTick && limit > now_)
            now_ = limit;
        if (!ref_.empty()) {
            EXPECT_GT(ref_.begin()->first, limit);
        }
    }

    void
    check()
    {
        EXPECT_EQ(q_.now(), now_);
        EXPECT_EQ(q_.pending(), ref_.size());
        EXPECT_EQ(q_.empty(), ref_.empty());
        const EventQueueInspector in{q_};
        EXPECT_EQ(in.staleCounted(), in.staleHeld());
    }

    EventQueue q_;
    std::mt19937_64 rng_;
    std::set<std::pair<Tick, std::uint64_t>> ref_; ///< pending (when, seq)
    std::vector<EventId> ids_; ///< by seq, every id ever issued
    std::vector<Tick> whenOf_; ///< by seq
    Tick now_ = 0;
    std::optional<std::uint64_t> guard_;
    std::vector<std::uint64_t> burst_;
    Paths paths_;
    std::size_t executed_ = 0;
};

} // namespace

TEST(EventQueueProperty, MatchesReferenceModel)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        ReferenceModel m(seed);
        m.run(20000);
        if (::testing::Test::HasFailure())
            break;
        EXPECT_GT(m.executed(), 20000u);
        const Paths& p = m.paths();
        EXPECT_GT(p.restarts, 0u);
        EXPECT_GT(p.tail, 0u);
        EXPECT_GT(p.gap, 0u);
        EXPECT_GT(p.suffix, 0u);
        EXPECT_GT(p.heap, 0u);
        EXPECT_GT(p.compactions, 0u);
        EXPECT_GT(p.heapCompactions, 0u);
    }
}
