/**
 * @file
 * Physical-memory granule tracking, after the RMM specification's
 * granule state machine.
 *
 * All physical memory is divided into 4 KiB granules. A granule is
 * either untracked normal-world memory (Undelegated), delegated to
 * realm world but unassigned (Delegated), or assigned a realm-world
 * purpose (RD, REC, RTT, Data). The host can only read/write
 * Undelegated granules; the state machine enforces the paper's
 * invariant I4 (no confidential granule is host-accessible).
 */

#ifndef CG_RMM_GRANULE_HH
#define CG_RMM_GRANULE_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace cg::rmm {

/** Physical address of a granule (4 KiB aligned). */
using PhysAddr = std::uint64_t;

constexpr std::uint64_t granuleSize = 4096;

constexpr bool
granuleAligned(PhysAddr a)
{
    return (a & (granuleSize - 1)) == 0;
}

enum class GranuleState {
    Undelegated, ///< normal world memory, host accessible
    Delegated,   ///< realm world, not yet assigned
    Rd,          ///< realm descriptor
    Rec,         ///< realm execution context
    Rtt,         ///< realm translation table
    Data,        ///< realm data (guest memory)
};

const char* granuleStateName(GranuleState s);

/** Result codes shared by granule ops and RMI commands. */
enum class RmiStatus {
    Success,
    BadAddress,   ///< unaligned or out-of-range address
    BadState,     ///< granule/realm/REC in the wrong state
    BadArgs,      ///< malformed arguments
    WrongCore,    ///< core-gapping binding violation (paper section 3)
    NoMemory,     ///< table walk needs an absent RTT level
    Busy,         ///< REC already running
    Timeout,      ///< cross-core transport gave up (host-side status)
};

const char* rmiStatusName(RmiStatus s);

/**
 * Tracks the state and owner of every delegated granule.
 *
 * Besides the address-ordered table of every tracked granule, the
 * tracker keeps a per-realm index of the granules each realm owns, so
 * owned() and releaseOwned() cost O(granules the realm owns) rather
 * than O(granules ever tracked). Realm teardown leaves its granules
 * Delegated in the table (nothing undelegates them), so the table
 * grows with every realm a testbed has held; the index does not.
 */
class GranuleTracker
{
  public:
    /** State of @p addr (Undelegated if never seen). */
    GranuleState stateOf(PhysAddr addr) const;

    /** Owning realm id, or -1 for unowned states. */
    int ownerOf(PhysAddr addr) const;

    /** NS -> Delegated. */
    RmiStatus delegate(PhysAddr addr);

    /** Delegated -> NS (only unassigned granules can leave). */
    RmiStatus undelegate(PhysAddr addr);

    /** Delegated -> an assigned state, owned by @p realm. */
    RmiStatus assign(PhysAddr addr, GranuleState to, int realm);

    /** Assigned -> Delegated (scrubbed and released by the owner). */
    RmiStatus release(PhysAddr addr, GranuleState from, int realm);

    /** Release every granule owned by @p realm (realm teardown). */
    void releaseOwned(int realm);

    /** Every granule owned by @p realm with its state, ascending
     * address (the deterministic migration-copy snapshot). */
    std::vector<std::pair<PhysAddr, GranuleState>> owned(int realm) const;

    /** Would a host access to @p addr be permitted by hardware? */
    bool hostAccessible(PhysAddr addr) const;

    /** Number of granules in a given state. */
    std::size_t countInState(GranuleState s) const;

  private:
    struct Entry {
        GranuleState state = GranuleState::Undelegated;
        int owner = -1;
    };

    std::map<PhysAddr, Entry> entries_;
    /** Realm id -> addresses it owns, ascending; an index over
     * entries_ kept in step by assign, release and releaseOwned. */
    std::map<int, std::set<PhysAddr>> owned_;
};

} // namespace cg::rmm

#endif // CG_RMM_GRANULE_HH
