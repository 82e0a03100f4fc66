/**
 * @file
 * The discrete-event heart of the simulator.
 *
 * Events are closures scheduled at an absolute Tick. Scheduling returns an
 * EventId that can later be cancelled. Ties are broken by insertion order,
 * which together with the deterministic Rng gives bit-identical replays.
 *
 * Internals are optimised for the schedule/run/cancel churn that dominates
 * simulation wall-clock time:
 *
 *  - Callbacks are EventFn (small-buffer optimised, move-only): the
 *    pointer-capture lambdas that make up nearly all events never touch
 *    the heap on schedule.
 *  - schedule() is a header template: the callable is constructed
 *    directly into its slot (no EventFn temporary, no type-erased
 *    relocation), and the monotone-append ordering fast path inlines
 *    into the caller.
 *  - Callback slots live in fixed-size chunks whose addresses never
 *    move, so a callback is invoked in place — growth of the slot pool
 *    from inside a running callback is safe, and the consume path pays
 *    one type-erased call (invoke) instead of three
 *    (relocate/invoke/destroy-moved).
 *  - Slot liveness is generation parity: a slot's generation is odd
 *    while occupied and even while free, so the heap entries and
 *    EventIds need no separate live flag and staleness checks read one
 *    dense uint32 array (gens_) instead of striding through the
 *    EventFn pool.
 *  - Ordering is two-tier, fitted to the measured push ranks (DESIGN.md
 *    §6 item 3): nearly every new event lands among the earliest few
 *    pending entries, while the newest entry is usually a far-future
 *    guard. A sorted run, consumed front-to-back, takes pushes at or
 *    after its tail in O(1) (bulk loads, monotone chains) and pushes
 *    that fall within frontWindow entries of its unconsumed front,
 *    sliding the few entries ahead of them down into the consumed gap
 *    (or, with no gap, shifting a short suffix up). Everything else —
 *    entries that rank deep in the pending set, large out-of-order
 *    loads — goes to a 4-ary min-heap (half the levels of a binary
 *    heap, cache-line-friendly sift). A pop takes whichever candidate
 *    is earlier, so events still execute in the exact (when, seq)
 *    total order: the split is invisible to simulated results.
 *  - Cancellation is O(1) generation invalidation: an EventId encodes its
 *    slot and the slot's generation at schedule time. Cancelling (or
 *    running) an event bumps the generation, so stale entries are
 *    skipped on pop and stale EventIds — including ids of events that
 *    already executed — fail to cancel, keeping pending() exact. No
 *    lazy-delete side table is needed. cancel() counts the stale
 *    entries it leaves behind and drops them from both tiers once they
 *    outnumber live ones by a fixed margin, so the tiers' size tracks
 *    pending(), not the cancel history.
 */

#ifndef CG_SIM_EVENT_QUEUE_HH
#define CG_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cg::sim {

/**
 * Handle to a scheduled event; 0 is "no event". Encodes (generation,
 * slot) — opaque to callers, unique across the queue's lifetime.
 */
using EventId = std::uint64_t;

constexpr EventId invalidEventId = 0;

/** Priority queue of timed callbacks with O(1) cancellation. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callable at absolute time @p when (>= now). The
     * callable is constructed directly into its recycled slot; small
     * captures never touch the heap.
     */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_v<D&>>>
    EventId
    schedule(Tick when, F&& fn)
    {
        CG_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
        const std::uint32_t idx = acquireSlot();
        fnAt(idx).emplace(std::forward<F>(fn));
        const std::uint32_t gen = gens_[idx];
        pushEntry(when, idx, gen);
        return makeId(idx, gen);
    }

    /** Schedule a pre-built EventFn (type-erased callers). */
    EventId schedule(Tick when, EventFn fn);

    /** Schedule after a delay relative to now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F&& fn)
    {
        CG_ASSERT(delay <= maxTick - now_, "tick overflow");
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and is now cancelled; false
     *         for invalid ids and events that already ran or were
     *         already cancelled.
     */
    bool cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t pending() const { return live_; }

    /**
     * Execute events in time order until the queue drains or @p limit
     * is reached (events at exactly @p limit still run).
     * @return the final simulated time.
     */
    Tick run(Tick limit = maxTick);

    /** Execute a single event if one exists. @return false if empty. */
    bool step();

    /** True while run() is executing events; false under step(). */
    bool running() const { return running_; }

    /**
     * Run-ahead (DESIGN.md §6 item 7): move now() to @p when and return
     * true if this is inside run(limit), @p when <= limit and no live
     * event is pending at or before @p when. The caller then does in
     * place what an event at @p when would have done: no other event
     * could have run first, so event order is unchanged. Never true
     * under step(), whose caller acts between single events.
     */
    bool runAhead(Tick when);

  private:
    /**
     * Callback storage: fixed-size chunks, addresses stable for the
     * queue's lifetime. Slots are recycled through a free list; a
     * slot's entry in gens_ counts occupancies twice (odd = occupied,
     * even = free), invalidating any outstanding EventId/heap entry
     * that still references a consumed occupancy.
     */
    static constexpr std::size_t chunkShift = 8;
    static constexpr std::size_t chunkSize = std::size_t{1} << chunkShift;

    struct Chunk {
        EventFn fns[chunkSize];
    };

    /**
     * Chunks live on the slab recycler (sim/slab.hh): a chunk is
     * exactly one top-bucket slab block, so growing a queue reuses
     * the chunks a destroyed queue gave back instead of hitting the
     * heap. Sweep-style workloads that build and tear down whole
     * simulations in a loop otherwise spend double-digit percent of
     * their time in glibc heap grow/trim for these.
     */
    struct ChunkDeleter {
        void operator()(Chunk* c) const noexcept;
    };
    using ChunkPtr = std::unique_ptr<Chunk, ChunkDeleter>;

    /** Heap entry: plain data, cheap to sift. */
    struct Entry {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;

        /** Total order: earlier time first, then insertion order. */
        bool
        before(const Entry& o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /** Children per heap node (see file comment). */
    static constexpr std::size_t heapArity = 4;

    /**
     * How far past the sorted run's unconsumed front a push may land
     * and still go into the run. Measured ranks of new entries among
     * pending ones (DESIGN.md §6 item 3): kv-openloop ≤ 8 for 97.9% of
     * pushes and ≤ 32 for 98.6%, blk-sync ≤ 32 for 97.8%, cvm-churn
     * ≤ 4 for all. 32 entries admit nearly all of them while bounding
     * the shift a push pays to 32 moves of a 24-byte entry.
     */
    static constexpr std::size_t frontWindow = 32;

    /**
     * cancel() drops stale (cancelled) entries from both tiers once
     * they number more than 2·live + staleSlack. Without the bound
     * kv-openloop's heap grew to 1198 entries (mean 252 at push) with
     * at most 39 live, nearly all the rest cancelled 3600 s guest-run
     * events. With it the tiers stay within a few times pending(), and
     * each compaction, costing O(entries), is paid for by the more
     * than 64 cancels since the last one.
     */
    static constexpr std::size_t staleSlack = 64;

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        // slot+1 keeps 0 reserved for invalidEventId.
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(slot) + 1);
    }

    EventFn&
    fnAt(std::uint32_t idx)
    {
        return chunks_[idx >> chunkShift]->fns[idx & (chunkSize - 1)];
    }

    std::uint32_t
    acquireSlot()
    {
        if (!freeSlots_.empty()) {
            const std::uint32_t idx = freeSlots_.back();
            freeSlots_.pop_back();
            ++gens_[idx]; // even -> odd: occupied
            return idx;
        }
        return appendSlot();
    }

    /** Grow the pool by one slot (new chunk when needed). */
    std::uint32_t appendSlot();

    /** Insert into the ordering structure (see file comment). */
    void
    pushEntry(Tick when, std::uint32_t idx, std::uint32_t gen)
    {
        const Entry e{when, nextSeq_++, idx, gen};
        if (sortedHead_ == sorted_.size()) {
            // Fully consumed: recycle the run. Anything may start it.
            sorted_.clear();
            sortedHead_ = 0;
            sorted_.push_back(e);
        } else if (!e.before(sorted_.back())) {
            sorted_.push_back(e); // at or after the tail: O(1)
        } else {
            pushBeforeTail(e);
        }
        ++live_;
    }

    /** Place @p e, which sorts before the run's tail: into the run's
     * front window if it lands there, else into the heap. */
    void pushBeforeTail(const Entry& e);

    void releaseSlot(std::uint32_t idx);

    void heapPush(Entry e);
    void heapPopTop();

    /** Sift @p e down from hole @p i to its place in the heap. */
    void heapSiftDown(std::size_t i, Entry e);

    /** Remove every stale entry from both tiers (see staleSlack). */
    void dropStale();

    bool entryLive(const Entry& e) const
    {
        return gens_[e.slot] == e.gen;
    }

    /**
     * Earliest live pending entry, dropping stale (cancelled) entries
     * encountered on the way; nullptr if drained. The pointer is
     * invalidated by the next push/pop.
     */
    const Entry* peekMin();

    /** Remove the entry peekMin() just returned. */
    void dropMin(const Entry* top);

    /**
     * Invoke slot @p idx in place and recycle it. The slot is marked
     * consumed (generation bump) before the call, so the callback may
     * schedule (growing the pool — chunk addresses are stable) and a
     * cancel of its own id correctly fails; it is returned to the free
     * list only after the call, so the running callable's captures are
     * never overwritten.
     */
    void runSlot(std::uint32_t idx);

    /** Pop and run the earliest live event; false if none (drained). */
    bool consumeOne();

    /** Sets running_/limit_ for one run() or step() and restores the
     * enclosing call's on exit, also when a callback throws. */
    struct RunScope;

    Tick now_ = 0;
    /** Inside run(), and that run's limit (see runAhead()). */
    bool running_ = false;
    Tick limit_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    /** Stale entries still held in the run or the heap. */
    std::size_t stale_ = 0;
    /**
     * Sorted run: ascending (when, seq), consumed from sortedHead_.
     * Grows at its tail and, through the consumed gap before
     * sortedHead_, at its front. The consumed prefix is compacted away
     * periodically.
     */
    std::vector<Entry> sorted_;
    std::size_t sortedHead_ = 0;
    std::vector<Entry> heap_; ///< implicit min-heap, arity heapArity
    std::vector<ChunkPtr> chunks_;
    std::vector<std::uint32_t> gens_; ///< per-slot; odd = occupied
    std::vector<std::uint32_t> freeSlots_;

    /** Read-only view of the tiers for the queue's white-box tests. */
    friend struct EventQueueInspector;
};

} // namespace cg::sim

#endif // CG_SIM_EVENT_QUEUE_HH
