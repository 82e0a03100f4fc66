/**
 * @file
 * Microarchitectural state with security-domain tagging.
 *
 * Each structure (cache, TLB, branch predictor, buffers) tracks how many
 * of its entries are held by each security domain. This serves two
 * purposes:
 *
 *  1. Performance: when a domain resumes on a core whose structures were
 *     polluted by another domain, it pays a warm-up cost proportional to
 *     the entries it lost (the locality effect core gapping exploits).
 *
 *  2. Security: a prober can count entries tagged with foreign domains.
 *     Observing a victim's entries without an intervening flush models a
 *     same-core side channel / transient-execution leak. The attack suite
 *     (src/attacks) asserts that core gapping reduces the observable
 *     foreign state of confidential VMs to zero on per-core structures,
 *     while shared structures (LLC, CrossTalk staging buffer) retain
 *     residue, matching the paper's threat model (section 2.4).
 */

#ifndef CG_HW_UARCH_HH
#define CG_HW_UARCH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/costs.hh"
#include "sim/small_vec.hh"
#include "sim/types.hh"

namespace cg::check {
class IsolationChecker;
}

namespace cg::hw {

using sim::DomainId;
using sim::Tick;

/** One tagged microarchitectural structure (cache / TLB / predictor). */
class TaggedStructure
{
  public:
    /**
     * @p epoch, when given, is incremented whenever any domain loses
     * entries here (eviction, flush); CoreUarch's warm-up memo reads it.
     */
    TaggedStructure(std::string name, std::size_t capacity,
                    Tick refill_per_entry, std::uint64_t* epoch = nullptr);

    const std::string& name() const { return name_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t used() const { return used_; }

    /**
     * Report every touch/probe/flush on this structure to @p checker
     * as structure @p sid (see check::IsolationChecker). Unbound
     * structures pay one branch per operation.
     */
    void bindChecker(check::IsolationChecker* checker, int sid)
    {
        checker_ = checker;
        checkId_ = sid;
    }

    /** A checker is bound (bindChecker with a non-null checker). */
    bool checked() const { return checker_ != nullptr; }

    /**
     * Domain @p d references a working set of @p entries entries.
     * Grows d's share toward min(entries, capacity); on overflow, other
     * domains' entries are evicted proportionally (LRU approximation).
     */
    void touch(DomainId d, std::size_t entries);

    /** Entries currently held by @p d. */
    std::size_t entriesOf(DomainId d) const;

    /**
     * entriesOf() for trusted control-plane audits (scrub
     * verification): reads the census without raising a checker probe
     * event, since the RMM inspecting its own scrub work is not an
     * attacker observation.
     */
    std::size_t auditEntriesOf(DomainId d) const
    {
        return residentCount(d);
    }

    /** Entries held by domains other than @p prober (leakable state). */
    std::size_t foreignEntries(DomainId prober) const;

    /** Entries held by @p victim specifically, as seen by a prober. */
    std::size_t victimEntries(DomainId victim) const
    {
        return entriesOf(victim);
    }

    /** Invalidate everything (mitigation flush / reset). */
    void flushAll();

    /** Invalidate only @p d's entries (targeted scrub). */
    void flushDomain(DomainId d);

    /**
     * Warm-up cost for @p d resuming with working set @p footprint:
     * (missing entries) x (refill cost per entry).
     */
    Tick warmupCost(DomainId d, std::size_t footprint) const;

  private:
    /**
     * The share census is struct-of-arrays: domain ids and counts in
     * parallel inline vectors, both ordered by ascending domain id.
     * touch() runs on every scheduling quantum for six structures per
     * core, and its proportional-eviction loops read every count while
     * consulting a domain id only to skip the toucher (and to name
     * eviction victims to the checker); splitting the arrays keeps the
     * counts the loops actually sweep densely packed instead of
     * interleaved with ids and padding. The ascending-id order
     * preserves the previous sorted-AoS (and original std::map)
     * iteration order, keeping eviction results bit-identical.
     *
     * Invariant: doms_.size() == counts_.size(), and used_ is exactly
     * the sum of counts_.
     */
    using DomVec = sim::SmallVec<DomainId, 8>;
    using CountVec = sim::SmallVec<std::size_t, 8>;

    /** Index of @p d in doms_, or the insertion point (lower bound). */
    std::size_t shareIndex(DomainId d) const;

    /** entriesOf() without the checker probe event (internal reads —
     * warm-up accounting — are not attacker observations). */
    std::size_t residentCount(DomainId d) const;

    /** Some domain lost entries: advance the owner's epoch. */
    void noteLoss()
    {
        if (epoch_)
            ++*epoch_;
    }

    std::string name_;
    std::size_t capacity_;
    Tick refillPerEntry_;
    std::size_t used_ = 0;
    DomVec doms_;     ///< ascending domain id
    CountVec counts_; ///< counts_[i] belongs to doms_[i]
    check::IsolationChecker* checker_ = nullptr;
    int checkId_ = -1;
    std::uint64_t* epoch_;
};

/**
 * Per-core private microarchitectural state.
 *
 * run() and warmupCost() remember the last run: while no structure
 * has lost an entry since (the shared epoch is unchanged), that
 * domain's working set up to that footprint is still resident, so a
 * repeat run() changes nothing and its warm-up cost is 0. The memo is
 * bypassed while a checker is bound, since every touch is an event.
 * Non-copyable and non-movable: the structures point at the epoch.
 */
class CoreUarch
{
  public:
    explicit CoreUarch(const Costs& costs);

    CoreUarch(const CoreUarch&) = delete;
    CoreUarch& operator=(const CoreUarch&) = delete;

    TaggedStructure l1i;
    TaggedStructure l1d;
    TaggedStructure l2;
    TaggedStructure tlb;
    TaggedStructure btb;         ///< branch predictor / BTB / BHB
    TaggedStructure storeBuffer; ///< store/fill buffers (MDS class)

    /** All per-core structures, for iteration. */
    std::vector<TaggedStructure*> all();
    std::vector<const TaggedStructure*> all() const;

    /**
     * The subset of state that firmware mitigations actually flush on a
     * security-boundary transition (predictor + buffers). Caches and
     * TLBs are NOT flushed, modelling the residual leakage that
     * motivates core gapping.
     */
    void mitigationFlush();

    /** Touch all structures for a domain executing with a working set. */
    void run(DomainId d, std::size_t footprint);

    /** Total warm-up cost for @p d across all structures. */
    Tick warmupCost(DomainId d, std::size_t footprint) const;

  private:
    /** @p d last ran here with at least @p footprint, nothing was
     * lost since, and no checker is watching. */
    bool resident(DomainId d, std::size_t footprint) const;

    std::uint64_t epoch_ = 0;
    DomainId memoDomain_ = sim::invalidDomain;
    std::size_t memoFootprint_ = 0;
    std::uint64_t memoEpoch_ = 0;
};

/** Structures shared between cores (out of core gapping's scope). */
class SharedUarch
{
  public:
    explicit SharedUarch(const Costs& costs);

    TaggedStructure llc;
    /**
     * The CPUID/RDRAND staging buffer exploited by CrossTalk, shared by
     * all cores: the one disclosed cross-core transient-execution leak
     * (fig. 3). Core gapping does not protect it; the attack suite
     * verifies this residual channel remains, as the paper concedes.
     */
    TaggedStructure stagingBuffer;
};

} // namespace cg::hw

#endif // CG_HW_UARCH_HH
