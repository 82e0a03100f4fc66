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

#include <array>
#include <cstdint>
#include <map>
#include <memory>
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
 * The table is a set of fixed blocks, each covering blockGranules
 * contiguous granules, found by binary search of a directory kept
 * sorted by block key (the address's granule number >> blockShift).
 * A block lives while it holds at least one tracked (not Undelegated)
 * granule. Beside the table, a per-realm index lists the granules each
 * realm owns, ascending, so owned() and releaseOwned() cost
 * O(granules the realm owns) rather than O(granules ever tracked).
 * Realm teardown leaves its granules Delegated in the table (nothing
 * undelegates them), so the table grows with every realm a testbed
 * has held. Those leftovers cost their blocks' bytes, and one step of
 * a lookup's binary search per doubling of the directory. The index
 * does not grow.
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

    /**
     * log2 of the granules per block, sized from cvm-churn's measured
     * layout. A realm holds about 80 granules; a testbed ends with
     * about 16.1k tracked entries, nearly all Delegated leftovers of
     * destroyed realms. 64-granule blocks hold them in about 455
     * blocks, and the perfbench driver's peak RSS on cvm-churn is
     * 6.4 MB (7.9 MB with one tree node per entry). 512-granule blocks
     * need only about 255, mostly empty, and it rises to 7.3 MB.
     */
    static constexpr int blockShift = 6;
    static constexpr std::size_t blockGranules = std::size_t{1}
                                                 << blockShift;
    static constexpr int granuleShift = 12;
    static_assert(granuleSize == std::uint64_t{1} << granuleShift);

    static constexpr std::uint64_t
    keyOf(PhysAddr addr)
    {
        return addr >> (granuleShift + blockShift);
    }

    static constexpr std::size_t
    slotOf(PhysAddr addr)
    {
        return (addr >> granuleShift) & (blockGranules - 1);
    }

    struct Block {
        std::array<Entry, blockGranules> entries{};
        /** Entries not Undelegated; the block goes at zero. */
        std::size_t tracked = 0;
    };

    /** The block of key @p key, or nullptr if absent. @p pos receives
     * the position of the first directory entry not below @p key: the
     * block's own, or where to insert it. */
    Block* blockOf(std::uint64_t key, std::size_t& pos) const;
    /** The entry of @p addr, or nullptr when @p addr is unaligned or
     * its block is absent (both read as Undelegated). */
    const Entry* find(PhysAddr addr) const;
    Entry* find(PhysAddr addr);

    /** Block key -> block, ascending by key. */
    std::vector<std::pair<std::uint64_t, std::unique_ptr<Block>>> dir_;
    /** Realm id -> addresses it owns, ascending; an index over the
     * table kept in step by assign, release and releaseOwned. */
    std::map<int, std::vector<PhysAddr>> owned_;

    /** Read-only view of the blocks for the tracker's white-box
     * tests. */
    friend struct GranuleTrackerInspector;
};

} // namespace cg::rmm

#endif // CG_RMM_GRANULE_HH
