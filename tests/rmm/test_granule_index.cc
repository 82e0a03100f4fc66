/**
 * @file
 * Property test pinning GranuleTracker's per-realm ownership index to
 * the linear-scan tracker it replaced.
 *
 * owned() and releaseOwned() used to walk every granule the tracker
 * had ever seen; they now visit only the realm's entry in an index
 * that assign, release and releaseOwned keep in step with the granule
 * table. ReferenceTracker below is the scan-based tracker verbatim
 * (a plain std::map plus scans). The test drives both through seeded
 * random sequences (via sim::Rng, so failures replay) of delegate,
 * undelegate, assign, release and releaseOwned over five realms,
 * including illegal calls, migration-style copies into a destination
 * window that either commit or roll back, and granules a second realm
 * takes over after the first gave them back to the host. After every
 * call it compares the status and every observable: stateOf, ownerOf
 * and hostAccessible for every address, countInState for every state,
 * and owned() for every realm. Dropping the index update from any one
 * mutator shows up as a stale or missing owned() entry.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "rmm/granule.hh"
#include "sim/rng.hh"

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
/** Small on purpose: realms keep drawing each other's old granules. */
constexpr std::size_t poolGranules = 40;
constexpr PhysAddr poolBase = 0x100000;
/** Migration destination windows are cut from this region. */
constexpr std::size_t windowGranules = 48;
constexpr PhysAddr windowBase = 0x40000000;

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
};

class Harness
{
  public:
    explicit Harness(std::uint64_t seed) : rng_(seed)
    {
        for (std::size_t i = 0; i < poolGranules; ++i)
            universe_.push_back(poolBase + i * granuleSize);
        for (std::size_t i = 0; i < windowGranules; ++i)
            universe_.push_back(windowBase + i * granuleSize);
    }

    void
    run(std::size_t steps)
    {
        for (step_ = 0; step_ < steps; ++step_) {
            switch (rng_.uniformInt(0, 9)) {
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
                handOver();
                break;
              default: {
                // Unaligned addresses: rejected before any lookup.
                delegate(pick() + 0x800);
                undelegate(pick() + 0x10);
                const PhysAddr a = pick() + 0x8;
                assign(a, GranuleState::Data, realm());
                break;
              }
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    const Coverage& coverage() const { return cov_; }

  private:
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

    /** Apply @p op to both trackers and compare everything. */
    template <typename Op>
    RmiStatus
    call(const char* what, Op op)
    {
        const RmiStatus got = op(index_);
        const RmiStatus want = op(ref_);
        EXPECT_EQ(got, want) << what << " at step " << step_;
        expectSame(what);
        return want;
    }

    void
    expectSame(const char* what)
    {
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

    RmiStatus
    delegate(PhysAddr a)
    {
        return call("delegate",
                    [a](auto& g) { return g.delegate(a); });
    }

    RmiStatus
    undelegate(PhysAddr a)
    {
        const RmiStatus s = call(
            "undelegate", [a](auto& g) { return g.undelegate(a); });
        if (s == RmiStatus::Success && lastOwner_.count(a))
            returnedToHost_.insert(a);
        return s;
    }

    RmiStatus
    assign(PhysAddr a, GranuleState to, int r)
    {
        const RmiStatus s = call(
            "assign", [a, to, r](auto& g) { return g.assign(a, to, r); });
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
        const RmiStatus s = call("release", [a, from, r](auto& g) {
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
     * The RMM's migration flow at tracker level: snapshot the realm's
     * granules, assign each into a destination window in snapshot
     * order (stopping at the first refusal, as migrateCopy does), then
     * either release the source (commit) or the partial copy (abort).
     */
    void
    migrate()
    {
        const int r = realm();
        const auto src = ref_.owned(r);
        if (src.empty() || src.size() > windowGranules)
            return;
        const std::size_t slot =
            rng_.uniformInt(0, windowGranules - src.size());
        const PhysAddr base = windowBase + slot * granuleSize;
        for (std::size_t i = 0; i < src.size(); ++i)
            delegate(base + i * granuleSize);
        std::size_t copied = 0;
        while (copied < src.size() &&
               assign(base + copied * granuleSize, src[copied].second,
                      r) == RmiStatus::Success) {
            ++copied;
        }
        if (copied == src.size() && rng_.chance(0.5)) {
            for (const auto& [addr, state] : src) {
                release(addr, state, r);
                if (rng_.chance(0.5))
                    undelegate(addr); // the host takes the source back
            }
            ++cov_.commits;
        } else {
            for (std::size_t i = 0; i < copied; ++i)
                release(base + i * granuleSize, src[i].second, r);
            ++cov_.aborts;
        }
    }

    /** A realm gives a granule back; the host undelegates it and
     * delegates it again for a different realm. */
    void
    handOver()
    {
        const int from = realm();
        const auto held = ref_.owned(from);
        if (held.empty())
            return;
        const auto [addr, state] =
            held[rng_.uniformInt(0, held.size() - 1)];
        release(addr, state, from);
        undelegate(addr);
        delegate(addr);
        const GranuleState to = assignedState();
        const int skip = static_cast<int>(rng_.uniformInt(1, numRealms - 1));
        assign(addr, to, (from + skip) % numRealms);
    }

    sim::Rng rng_;
    GranuleTracker index_;
    ReferenceTracker ref_;
    std::vector<PhysAddr> universe_;
    std::map<PhysAddr, int> lastOwner_;
    std::set<PhysAddr> returnedToHost_;
    Coverage cov_;
    std::size_t step_ = 0;
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
