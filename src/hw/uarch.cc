#include "hw/uarch.hh"

#include <algorithm>

#include "check/checker.hh"
#include "sim/logging.hh"

namespace cg::hw {

TaggedStructure::TaggedStructure(std::string name, std::size_t capacity,
                                 Tick refill_per_entry,
                                 std::uint64_t* epoch)
    : name_(std::move(name)),
      capacity_(capacity),
      refillPerEntry_(refill_per_entry),
      epoch_(epoch)
{
    CG_ASSERT(capacity_ > 0, "structure '%s' has zero capacity",
              name_.c_str());
}

std::size_t
TaggedStructure::shareIndex(DomainId d) const
{
    const DomainId* first = doms_.begin();
    return static_cast<std::size_t>(
        std::lower_bound(first, doms_.end(), d) - first);
}

void
TaggedStructure::touch(DomainId d, std::size_t entries)
{
    CG_ASSERT(d != sim::invalidDomain,
              "touch on '%s' with invalid domain", name_.c_str());
    const std::size_t target = std::min(entries, capacity_);
    std::size_t i = shareIndex(d);
    if (i == doms_.size() || doms_[i] != d) {
        doms_.insert(doms_.begin() + i, d);
        counts_.insert(counts_.begin() + i, 0);
    }
    if (target <= counts_[i]) {
        // Working set already resident; still an access for the
        // checker's last-touch bookkeeping.
        if (checker_)
            checker_->onTouch(checkId_, d, counts_[i]);
        return;
    }
    const std::size_t grow = target - counts_[i];
    std::size_t others = used_ - counts_[i];
    counts_[i] = target;
    used_ += grow;
    if (checker_)
        checker_->onTouch(checkId_, d, target);
    if (used_ <= capacity_)
        return;
    // Evict the overflow proportionally from other domains. Each
    // victim's share is computed against the original overflow so the
    // eviction is fair regardless of iteration order. The loops sweep
    // the dense counts_ array; doms_ is consulted only to skip the
    // toucher and to name fully-evicted victims to the checker.
    noteLoss();
    const std::size_t total_overflow = used_ - capacity_;
    std::size_t overflow = total_overflow;
    CG_ASSERT(others >= overflow, "eviction accounting broken in '%s'",
              name_.c_str());
    const std::size_t n = counts_.size();
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t cnt = counts_[j];
        if (j == i || cnt == 0 || overflow == 0)
            continue;
        // Round to nearest so we track the fair share closely.
        std::size_t take =
            std::min(cnt, (cnt * total_overflow + others / 2) / others);
        take = std::min(take, overflow);
        counts_[j] = cnt - take;
        used_ -= take;
        overflow -= take;
        if (counts_[j] == 0 && checker_)
            checker_->onEvict(checkId_, doms_[j]);
    }
    // Rounding may leave a few entries; sweep them up.
    for (std::size_t j = 0; j < n && overflow != 0; ++j) {
        const std::size_t cnt = counts_[j];
        if (j == i || cnt == 0)
            continue;
        const std::size_t take = std::min(cnt, overflow);
        counts_[j] = cnt - take;
        used_ -= take;
        overflow -= take;
        if (counts_[j] == 0 && checker_)
            checker_->onEvict(checkId_, doms_[j]);
    }
    CG_ASSERT(used_ <= capacity_, "'%s' overfull after eviction",
              name_.c_str());
}

std::size_t
TaggedStructure::residentCount(DomainId d) const
{
    const std::size_t i = shareIndex(d);
    return (i == doms_.size() || doms_[i] != d) ? 0 : counts_[i];
}

std::size_t
TaggedStructure::entriesOf(DomainId d) const
{
    const std::size_t count = residentCount(d);
    if (checker_)
        checker_->onProbe(checkId_, d, count);
    return count;
}

std::size_t
TaggedStructure::foreignEntries(DomainId prober) const
{
    // used_ is the sum of all counts by invariant, so the foreign
    // total is one subtraction instead of a sweep.
    const std::size_t total = used_ - residentCount(prober);
    if (checker_)
        checker_->onProbeForeign(checkId_, prober, total);
    return total;
}

void
TaggedStructure::flushAll()
{
    doms_.clear();
    counts_.clear();
    used_ = 0;
    noteLoss();
    if (checker_)
        checker_->onFlushAll(checkId_);
}

void
TaggedStructure::flushDomain(DomainId d)
{
    CG_ASSERT(d != sim::invalidDomain,
              "flushDomain on '%s' with invalid domain", name_.c_str());
    const std::size_t i = shareIndex(d);
    if (i == doms_.size() || doms_[i] != d) {
        if (checker_)
            checker_->onFlushDomain(checkId_, d);
        return;
    }
    used_ -= counts_[i];
    doms_.erase(doms_.begin() + i);
    counts_.erase(counts_.begin() + i);
    noteLoss();
    if (checker_)
        checker_->onFlushDomain(checkId_, d);
}

Tick
TaggedStructure::warmupCost(DomainId d, std::size_t footprint) const
{
    const std::size_t want = std::min(footprint, capacity_);
    const std::size_t have = residentCount(d);
    if (have >= want)
        return 0;
    return static_cast<Tick>(want - have) * refillPerEntry_;
}

namespace {

// Typical Arm server core (Neoverse-class) structure sizes, in entries.
constexpr std::size_t l1iEntries = 64 * 1024 / 64;   // 64 KiB / line
constexpr std::size_t l1dEntries = 64 * 1024 / 64;   // 64 KiB / line
constexpr std::size_t l2Entries = 1024 * 1024 / 64;  // 1 MiB / line
constexpr std::size_t tlbEntries = 1280;             // unified L2 TLB
constexpr std::size_t btbEntries = 8192;
constexpr std::size_t sbEntries = 56;                // store buffer slots
constexpr std::size_t llcEntries = 32 * 1024 * 1024 / 64; // 32 MiB SLC
constexpr std::size_t stagingEntries = 16;

} // namespace

CoreUarch::CoreUarch(const Costs& costs)
    : l1i("l1i", l1iEntries, costs.l1RefillPerEntry, &epoch_),
      l1d("l1d", l1dEntries, costs.l1RefillPerEntry, &epoch_),
      l2("l2", l2Entries, costs.l2RefillPerEntry, &epoch_),
      tlb("tlb", tlbEntries, costs.tlbRefillPerEntry, &epoch_),
      btb("btb", btbEntries, costs.btbRefillPerEntry, &epoch_),
      storeBuffer("store-buffer", sbEntries, costs.l1RefillPerEntry,
                  &epoch_)
{}

std::vector<TaggedStructure*>
CoreUarch::all()
{
    return {&l1i, &l1d, &l2, &tlb, &btb, &storeBuffer};
}

std::vector<const TaggedStructure*>
CoreUarch::all() const
{
    return {&l1i, &l1d, &l2, &tlb, &btb, &storeBuffer};
}

void
CoreUarch::mitigationFlush()
{
    btb.flushAll();
    storeBuffer.flushAll();
}

bool
CoreUarch::resident(DomainId d, std::size_t footprint) const
{
    // Each structure's target below grows with the footprint, and only
    // a loss (which advances epoch_) can take entries from d, so every
    // touch would find its target resident and every warm-up term is 0.
    return d == memoDomain_ && footprint <= memoFootprint_ &&
           epoch_ == memoEpoch_ && !l1i.checked() && !l1d.checked() &&
           !l2.checked() && !tlb.checked() && !btb.checked() &&
           !storeBuffer.checked();
}

void
CoreUarch::run(DomainId d, std::size_t footprint)
{
    if (resident(d, footprint))
        return;
    // Instruction-side structures see a fraction of the data footprint;
    // the TLB sees pages (footprint is expressed in cache lines).
    l1d.touch(d, footprint);
    l1i.touch(d, std::max<std::size_t>(1, footprint / 4));
    l2.touch(d, footprint);
    tlb.touch(d, std::max<std::size_t>(1, footprint / 64));
    btb.touch(d, std::max<std::size_t>(1, footprint / 2));
    storeBuffer.touch(d, sbEntries);
    memoDomain_ = d;
    memoFootprint_ = footprint;
    memoEpoch_ = epoch_;
}

Tick
CoreUarch::warmupCost(DomainId d, std::size_t footprint) const
{
    if (resident(d, footprint))
        return 0;
    Tick total = 0;
    total += l1d.warmupCost(d, footprint);
    total += l1i.warmupCost(d, std::max<std::size_t>(1, footprint / 4));
    total += l2.warmupCost(d, footprint) / 4; // L2 misses overlap more
    total += tlb.warmupCost(d, std::max<std::size_t>(1, footprint / 64));
    total += btb.warmupCost(d, std::max<std::size_t>(1, footprint / 2));
    return total;
}

SharedUarch::SharedUarch(const Costs& costs)
    : llc("llc", llcEntries, costs.l2RefillPerEntry),
      stagingBuffer("staging-buffer", stagingEntries,
                    costs.l1RefillPerEntry)
{}

} // namespace cg::hw
