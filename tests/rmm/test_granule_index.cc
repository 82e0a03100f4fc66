/**
 * @file
 * Property test pinning GranuleTracker -- its block table and its
 * per-realm ownership index -- to the linear-scan tracker it replaced.
 *
 * The tracker keeps granules in fixed blocks found by binary search of
 * a sorted directory, and lists each realm's granules in an index that
 * assign, release and releaseOwned keep in step with the table. ReferenceTracker below is the
 * scan-based tracker verbatim (a plain std::map plus scans). The test
 * drives both through seeded random sequences (via sim::Rng, so
 * failures replay) of delegate, undelegate, assign, release and
 * releaseOwned over five realms, including illegal and unaligned
 * calls, migration-style copies into a destination window that either
 * commit or roll back, granules a second realm takes over after the
 * first gave them back to the host, and runs of back-to-back calls in
 * one window as hosts make them. Its addresses straddle block edges
 * and sit in far-apart regions shaped like the host's real windows.
 * After every call (or run of calls) it compares the status and every
 * observable: stateOf, ownerOf and hostAccessible for every address,
 * countInState for every state, and owned() for every realm; it also
 * checks the table's own invariants (directory ascending, no empty
 * block, per-block counts) and that every lookup path ran. Dropping the index update from any one
 * mutator shows up as a stale or missing owned() entry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rmm/granule.hh"
#include "sim/rng.hh"

namespace cg::rmm {

/** Read-only view of GranuleTracker's blocks (a friend). */
struct GranuleTrackerInspector {
    const GranuleTracker& g;

    /** Whether a lookup of @p addr finds its block right now. */
    bool
    hasBlock(PhysAddr addr) const
    {
        const std::uint64_t key = GranuleTracker::keyOf(addr);
        for (const auto& d : g.dir_) {
            if (d.first == key)
                return true;
        }
        return false;
    }

    std::size_t blocks() const { return g.dir_.size(); }

    /** The table's structural invariants; an empty string if they
     * hold, else the first one broken. */
    std::string
    broken() const
    {
        for (std::size_t i = 0; i < g.dir_.size(); ++i) {
            const auto& [key, block] = g.dir_[i];
            if (i > 0 && g.dir_[i - 1].first >= key)
                return "directory not strictly ascending";
            std::size_t tracked = 0;
            for (const auto& e : block->entries)
                tracked += e.state != GranuleState::Undelegated ? 1 : 0;
            if (tracked != block->tracked)
                return "block's tracked count is off";
            if (tracked == 0)
                return "empty block kept";
        }
        return "";
    }
};

} // namespace cg::rmm

namespace sim = cg::sim;
using namespace cg::rmm;

namespace {

/** The linear-scan tracker, kept as the behavioural reference. */
class ReferenceTracker
{
  public:
    GranuleState
    stateOf(PhysAddr addr) const
    {
        auto it = entries_.find(addr);
        return it == entries_.end() ? GranuleState::Undelegated
                                    : it->second.state;
    }

    int
    ownerOf(PhysAddr addr) const
    {
        auto it = entries_.find(addr);
        return it == entries_.end() ? -1 : it->second.owner;
    }

    RmiStatus
    delegate(PhysAddr addr)
    {
        if (!granuleAligned(addr))
            return RmiStatus::BadAddress;
        if (stateOf(addr) != GranuleState::Undelegated)
            return RmiStatus::BadState;
        entries_[addr] = Entry{GranuleState::Delegated, -1};
        return RmiStatus::Success;
    }

    RmiStatus
    undelegate(PhysAddr addr)
    {
        if (!granuleAligned(addr))
            return RmiStatus::BadAddress;
        auto it = entries_.find(addr);
        if (it == entries_.end() ||
            it->second.state != GranuleState::Delegated) {
            return RmiStatus::BadState;
        }
        entries_.erase(it);
        return RmiStatus::Success;
    }

    RmiStatus
    assign(PhysAddr addr, GranuleState to, int realm)
    {
        if (!granuleAligned(addr))
            return RmiStatus::BadAddress;
        if (to == GranuleState::Undelegated ||
            to == GranuleState::Delegated)
            return RmiStatus::BadArgs;
        auto it = entries_.find(addr);
        if (it == entries_.end() ||
            it->second.state != GranuleState::Delegated) {
            return RmiStatus::BadState;
        }
        it->second = Entry{to, realm};
        return RmiStatus::Success;
    }

    RmiStatus
    release(PhysAddr addr, GranuleState from, int realm)
    {
        auto it = entries_.find(addr);
        if (it == entries_.end() || it->second.state != from ||
            it->second.owner != realm) {
            return RmiStatus::BadState;
        }
        it->second = Entry{GranuleState::Delegated, -1};
        return RmiStatus::Success;
    }

    void
    releaseOwned(int realm)
    {
        for (auto& [addr, e] : entries_) {
            if (e.owner == realm)
                e = Entry{GranuleState::Delegated, -1};
        }
    }

    std::vector<std::pair<PhysAddr, GranuleState>>
    owned(int realm) const
    {
        std::vector<std::pair<PhysAddr, GranuleState>> out;
        for (const auto& [addr, e] : entries_) {
            if (e.owner == realm)
                out.emplace_back(addr, e.state);
        }
        return out;
    }

    bool
    hostAccessible(PhysAddr addr) const
    {
        return stateOf(addr & ~(granuleSize - 1)) ==
               GranuleState::Undelegated;
    }

    std::size_t
    countInState(GranuleState s) const
    {
        if (s == GranuleState::Undelegated)
            return 0;
        std::size_t n = 0;
        for (const auto& [addr, e] : entries_)
            n += e.state == s ? 1 : 0;
        return n;
    }

  private:
    struct Entry {
        GranuleState state = GranuleState::Undelegated;
        int owner = -1;
    };

    std::map<PhysAddr, Entry> entries_;
};

constexpr int numRealms = 5;

/** A run of contiguous granules the harness draws addresses from. */
struct Region {
    PhysAddr base;
    std::size_t granules;
};

/** Small on purpose: realms keep drawing each other's old granules. */
constexpr Region pool{0x100000, 40};
/** A migration destination window in a single block. */
constexpr Region window{0x40000000, 48};
/** Four granules either side of a block edge (64-granule blocks). */
constexpr Region edge{0x8000000 - 4 * granuleSize, 8};
/**
 * Far-apart windows shaped like the host's (domain d = 1): the page
 * fault window ((d + 1) << 32), the realm-create window
 * ((d + 0x100) << 32, past a block edge like a real realm's ~70
 * granules), and two migration windows
 * (0x5 << 44 | d << 36 | seq << 24), also past a block edge.
 */
constexpr Region faultWindow{2ull << 32, 16};
constexpr Region createWindow{0x101ull << 32, 68};
constexpr Region migWindows[] = {
    {0x5ull << 44 | 1ull << 36 | 0ull << 24, 68},
    {0x5ull << 44 | 1ull << 36 | 1ull << 24, 68},
};
/** Regions a realm fills with a run of back-to-back calls. */
constexpr Region fillRegions[] = {faultWindow, createWindow, edge};

constexpr GranuleState allStates[] = {
    GranuleState::Undelegated, GranuleState::Delegated,
    GranuleState::Rd,          GranuleState::Rec,
    GranuleState::Rtt,         GranuleState::Data,
};

/** How often each interesting path ran, so a sequence that never
 * reaches one cannot pass vacuously. */
struct Coverage {
    std::size_t legalAssigns = 0;
    std::size_t illegalAssigns = 0;
    std::size_t legalReleases = 0;
    std::size_t illegalReleases = 0;
    std::size_t sweeps = 0; ///< releaseOwned calls that freed something
    std::size_t commits = 0;
    std::size_t aborts = 0;
    /** Assigns of a granule that another realm held before the host
     * undelegated it. */
    std::size_t reuses = 0;
    /** @{ Block lookups made by the calls (not the comparisons). */
    std::size_t newBlocks = 0;     ///< a delegate created the block
    std::size_t dirHits = 0;       ///< the directory held the block
    std::size_t absentLookups = 0; ///< no block holds the address
    /** @} */
    std::size_t droppedBlocks = 0; ///< an undelegate emptied its block
    /** Unaligned stateOf/ownerOf/release on an assigned granule. */
    std::size_t unalignedOnAssigned = 0;
    std::size_t fills = 0; ///< back-to-back window runs
};

class Harness
{
  public:
    explicit Harness(std::uint64_t seed) : rng_(seed)
    {
        addRegion(pool);
        addRegion(window);
        addRegion(edge);
        addRegion(faultWindow);
        addRegion(createWindow);
        for (const Region& w : migWindows)
            addRegion(w);
    }

    void
    run(std::size_t steps)
    {
        for (step_ = 0; step_ < steps; ++step_) {
            switch (rng_.uniformInt(0, 11)) {
              case 0:
                delegate(pick());
                break;
              case 1:
                undelegate(pick());
                break;
              case 2:
              case 3:
                assignRandom();
                break;
              case 4:
              case 5:
                releaseRandom();
                break;
              case 6:
                if (rng_.chance(0.25))
                    releaseOwned(realm());
                break;
              case 7:
                migrate();
                break;
              case 8:
                handOver(false);
                break;
              case 9:
                fill();
                break;
              case 10:
                handOver(true);
                break;
              default:
                unaligned();
                break;
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    const Coverage& coverage() const { return cov_; }

  private:
    void
    addRegion(const Region& r)
    {
        for (std::size_t i = 0; i < r.granules; ++i)
            universe_.push_back(r.base + i * granuleSize);
    }

    PhysAddr
    pick()
    {
        return universe_[rng_.uniformInt(0, universe_.size() - 1)];
    }

    int
    realm()
    {
        return static_cast<int>(rng_.uniformInt(0, numRealms - 1));
    }

    GranuleState
    assignedState()
    {
        return allStates[rng_.uniformInt(2, 5)];
    }

    /** Count the block lookup a call on @p addr is about to make. */
    void
    notePath(const char* what, PhysAddr addr)
    {
        if (!granuleAligned(addr))
            return; // rejected before any lookup
        if (GranuleTrackerInspector{index_}.hasBlock(addr))
            ++cov_.dirHits;
        else if (std::string(what) == "delegate")
            ++cov_.newBlocks;
        else
            ++cov_.absentLookups;
    }

    /** call() for an op on the single address @p addr. */
    template <typename Op>
    RmiStatus
    call(const char* what, PhysAddr addr, Op op)
    {
        notePath(what, addr);
        return call(what, op);
    }

    /**
     * Apply @p op to both trackers and compare the status; unless a
     * run of calls is in progress (batch_), compare everything too.
     */
    template <typename Op>
    RmiStatus
    call(const char* what, Op op)
    {
        const std::size_t blocks = GranuleTrackerInspector{index_}.blocks();
        const RmiStatus got = op(index_);
        const RmiStatus want = op(ref_);
        EXPECT_EQ(got, want) << what << " at step " << step_;
        if (GranuleTrackerInspector{index_}.blocks() < blocks)
            ++cov_.droppedBlocks;
        if (!batch_)
            expectSame(what);
        return want;
    }

    void
    expectSame(const char* what)
    {
        ASSERT_EQ(GranuleTrackerInspector{index_}.broken(), "")
            << what << " at step " << step_;
        for (PhysAddr a : universe_) {
            ASSERT_EQ(index_.stateOf(a), ref_.stateOf(a))
                << what << ": addr " << std::hex << a << std::dec
                << " at step " << step_;
            ASSERT_EQ(index_.ownerOf(a), ref_.ownerOf(a))
                << what << ": addr " << std::hex << a << std::dec
                << " at step " << step_;
            ASSERT_EQ(index_.hostAccessible(a), ref_.hostAccessible(a))
                << what << " at step " << step_;
        }
        for (GranuleState s : allStates) {
            ASSERT_EQ(index_.countInState(s), ref_.countInState(s))
                << what << ": " << granuleStateName(s) << " at step "
                << step_;
        }
        // One realm past the last: never owns anything.
        for (int r = 0; r <= numRealms; ++r) {
            ASSERT_EQ(index_.owned(r), ref_.owned(r))
                << what << ": realm " << r << " at step " << step_;
        }
    }

    /** Run @p body as one batch (statuses compared per call, the
     * rest at the end) if @p batch, else call by call. */
    template <typename Body>
    void
    batched(const char* what, bool batch, Body body)
    {
        batch_ = batch;
        body();
        if (batch_) {
            batch_ = false;
            expectSame(what);
        }
    }

    RmiStatus
    delegate(PhysAddr a)
    {
        return call("delegate", a,
                    [a](auto& g) { return g.delegate(a); });
    }

    RmiStatus
    undelegate(PhysAddr a)
    {
        const RmiStatus s = call(
            "undelegate", a, [a](auto& g) { return g.undelegate(a); });
        if (s == RmiStatus::Success && lastOwner_.count(a))
            returnedToHost_.insert(a);
        return s;
    }

    RmiStatus
    assign(PhysAddr a, GranuleState to, int r)
    {
        const RmiStatus s = call("assign", a, [a, to, r](auto& g) {
            return g.assign(a, to, r);
        });
        if (s != RmiStatus::Success) {
            ++cov_.illegalAssigns;
            return s;
        }
        ++cov_.legalAssigns;
        if (returnedToHost_.erase(a) && lastOwner_[a] != r)
            ++cov_.reuses;
        lastOwner_[a] = r;
        return s;
    }

    RmiStatus
    release(PhysAddr a, GranuleState from, int r)
    {
        const RmiStatus s = call("release", a, [a, from, r](auto& g) {
            return g.release(a, from, r);
        });
        if (s == RmiStatus::Success)
            ++cov_.legalReleases;
        else
            ++cov_.illegalReleases;
        return s;
    }

    void
    releaseOwned(int r)
    {
        cov_.sweeps += ref_.owned(r).empty() ? 0 : 1;
        call("releaseOwned", [r](auto& g) {
            g.releaseOwned(r);
            return RmiStatus::Success;
        });
    }

    void
    assignRandom()
    {
        // Mostly assignable states; sometimes the two it must reject.
        const GranuleState to = rng_.chance(0.1)
                                    ? allStates[rng_.uniformInt(0, 1)]
                                    : assignedState();
        const PhysAddr a = pick();
        assign(a, to, realm());
    }

    void
    releaseRandom()
    {
        const PhysAddr a = pick();
        if (rng_.chance(0.6) && ref_.ownerOf(a) >= 0) {
            release(a, ref_.stateOf(a), ref_.ownerOf(a));
        } else {
            // Wrong state, wrong owner, or nothing assigned there.
            const GranuleState from = allStates[rng_.uniformInt(0, 5)];
            release(a, from, realm());
        }
    }

    /**
     * Unaligned addresses: mutators reject them before any lookup,
     * stateOf/ownerOf read them as Undelegated/-1, and release never
     * matches -- even when the granule containing them is assigned,
     * with its state and owner passed.
     */
    void
    unaligned()
    {
        delegate(pick() + 0x800);
        undelegate(pick() + 0x10);
        assign(pick() + 0x8, GranuleState::Data, realm());

        const int r = realm();
        const auto held = ref_.owned(r);
        PhysAddr a = pick();
        if (!held.empty()) {
            a = held[rng_.uniformInt(0, held.size() - 1)].first;
            ++cov_.unalignedOnAssigned;
        }
        const PhysAddr u = a + 8 * rng_.uniformInt(1, granuleSize / 8 - 1);
        EXPECT_EQ(index_.stateOf(u), ref_.stateOf(u)) << "at step " << step_;
        EXPECT_EQ(index_.ownerOf(u), ref_.ownerOf(u)) << "at step " << step_;
        release(u, ref_.stateOf(a), ref_.ownerOf(a));
    }

    /**
     * The RMM's migration flow at tracker level: snapshot the realm's
     * granules, assign each into a destination window in snapshot
     * order (stopping at the first refusal, as migrateCopy does), then
     * either release the source (commit) or the partial copy (abort).
     * Into the single-block window it compares everything after each
     * call; into a real-shaped window it runs back to back, as the
     * controller issues the calls, and compares at the end.
     */
    void
    migrate()
    {
        const int r = realm();
        const auto src = ref_.owned(r);
        const bool real = rng_.chance(0.5);
        const Region& w = real ? migWindows[rng_.uniformInt(0, 1)] : window;
        if (src.empty() || src.size() > w.granules)
            return;
        const std::size_t slot =
            rng_.uniformInt(0, w.granules - src.size());
        const PhysAddr base = w.base + slot * granuleSize;
        batched("migrate", real, [&] {
            for (std::size_t i = 0; i < src.size(); ++i)
                delegate(base + i * granuleSize);
            std::size_t copied = 0;
            while (copied < src.size() &&
                   assign(base + copied * granuleSize,
                          src[copied].second, r) == RmiStatus::Success) {
                ++copied;
            }
            if (copied == src.size() && rng_.chance(0.5)) {
                for (const auto& [addr, state] : src) {
                    release(addr, state, r);
                    if (rng_.chance(0.5))
                        undelegate(addr); // the host takes it back
                }
                ++cov_.commits;
            } else {
                for (std::size_t i = 0; i < copied; ++i)
                    release(base + i * granuleSize, src[i].second, r);
                ++cov_.aborts;
            }
        });
    }

    /** A realm gives a granule back; the host undelegates it and
     * delegates it again for a different realm (as one batch if
     * @p batch: undelegating may drop the block just before the
     * delegate looks it up again). */
    void
    handOver(bool batch)
    {
        const int from = realm();
        const auto held = ref_.owned(from);
        if (held.empty())
            return;
        const auto [addr, state] =
            held[rng_.uniformInt(0, held.size() - 1)];
        batched("handOver", batch, [&] {
            release(addr, state, from);
            undelegate(addr);
            delegate(addr);
            const GranuleState to = assignedState();
            const int skip =
                static_cast<int>(rng_.uniformInt(1, numRealms - 1));
            assign(addr, to, (from + skip) % numRealms);
        });
    }

    /**
     * A host filling a realm's window: delegate then assign a run of
     * consecutive granules back to back, as createRealmFor() and the
     * page-fault path do, possibly across a block edge. Sometimes the
     * host then takes the whole window back (each owner releases its
     * granules there and the host undelegates them all), which empties
     * its blocks.
     */
    void
    fill()
    {
        const Region& w = fillRegions[rng_.uniformInt(0, 2)];
        const std::size_t first = rng_.uniformInt(0, w.granules - 1);
        const std::size_t n =
            rng_.uniformInt(1, std::min<std::size_t>(24, w.granules - first));
        const int r = realm();
        ++cov_.fills;
        batched("fill", rng_.chance(0.5), [&] {
            for (std::size_t i = first; i < first + n; ++i) {
                const PhysAddr a = w.base + i * granuleSize;
                delegate(a);
                assign(a, assignedState(), r);
            }
            if (rng_.chance(0.3)) {
                for (std::size_t i = 0; i < w.granules; ++i) {
                    const PhysAddr a = w.base + i * granuleSize;
                    if (ref_.ownerOf(a) >= 0)
                        release(a, ref_.stateOf(a), ref_.ownerOf(a));
                    undelegate(a);
                }
            }
        });
    }

    sim::Rng rng_;
    GranuleTracker index_;
    ReferenceTracker ref_;
    std::vector<PhysAddr> universe_;
    std::map<PhysAddr, int> lastOwner_;
    std::set<PhysAddr> returnedToHost_;
    Coverage cov_;
    std::size_t step_ = 0;
    bool batch_ = false;
};

void
runSequence(std::uint64_t seed, std::size_t steps)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Harness h(seed);
    h.run(steps);
    if (::testing::Test::HasFatalFailure())
        return;
    const Coverage& c = h.coverage();
    EXPECT_GT(c.legalAssigns, 0u);
    EXPECT_GT(c.illegalAssigns, 0u);
    EXPECT_GT(c.legalReleases, 0u);
    EXPECT_GT(c.illegalReleases, 0u);
    EXPECT_GT(c.sweeps, 0u);
    EXPECT_GT(c.commits, 0u);
    EXPECT_GT(c.aborts, 0u);
    EXPECT_GT(c.reuses, 0u);
    EXPECT_GT(c.newBlocks, 0u);
    EXPECT_GT(c.dirHits, 0u);
    EXPECT_GT(c.absentLookups, 0u);
    EXPECT_GT(c.droppedBlocks, 0u);
    EXPECT_GT(c.unalignedOnAssigned, 0u);
    EXPECT_GT(c.fills, 0u);
}

} // namespace

TEST(GranuleIndexProperty, MatchesLinearScanTracker)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        runSequence(seed, 600);
    // Long enough for realms to churn through each other's granules
    // many times over.
    runSequence(1000, 4000);
}
