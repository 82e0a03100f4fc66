#include "rmm/granule.hh"

#include <algorithm>

namespace cg::rmm {

const char*
granuleStateName(GranuleState s)
{
    switch (s) {
      case GranuleState::Undelegated:
        return "undelegated";
      case GranuleState::Delegated:
        return "delegated";
      case GranuleState::Rd:
        return "rd";
      case GranuleState::Rec:
        return "rec";
      case GranuleState::Rtt:
        return "rtt";
      case GranuleState::Data:
        return "data";
    }
    return "?";
}

const char*
rmiStatusName(RmiStatus s)
{
    switch (s) {
      case RmiStatus::Success:
        return "success";
      case RmiStatus::BadAddress:
        return "bad-address";
      case RmiStatus::BadState:
        return "bad-state";
      case RmiStatus::BadArgs:
        return "bad-args";
      case RmiStatus::WrongCore:
        return "wrong-core";
      case RmiStatus::NoMemory:
        return "no-memory";
      case RmiStatus::Busy:
        return "busy";
      case RmiStatus::Timeout:
        return "timeout";
    }
    return "?";
}

GranuleTracker::Block*
GranuleTracker::blockOf(std::uint64_t key, std::size_t& pos) const
{
    const auto it = std::lower_bound(
        dir_.begin(), dir_.end(), key,
        [](const auto& d, std::uint64_t k) { return d.first < k; });
    pos = static_cast<std::size_t>(it - dir_.begin());
    return it != dir_.end() && it->first == key ? it->second.get()
                                                : nullptr;
}

const GranuleTracker::Entry*
GranuleTracker::find(PhysAddr addr) const
{
    // Only aligned addresses are ever tracked; an unaligned one would
    // otherwise alias the entry of the granule containing it.
    if (!granuleAligned(addr))
        return nullptr;
    std::size_t pos = 0;
    const Block* b = blockOf(keyOf(addr), pos);
    return b ? &b->entries[slotOf(addr)] : nullptr;
}

GranuleTracker::Entry*
GranuleTracker::find(PhysAddr addr)
{
    return const_cast<Entry*>(
        static_cast<const GranuleTracker*>(this)->find(addr));
}

GranuleState
GranuleTracker::stateOf(PhysAddr addr) const
{
    const Entry* e = find(addr);
    return e ? e->state : GranuleState::Undelegated;
}

int
GranuleTracker::ownerOf(PhysAddr addr) const
{
    const Entry* e = find(addr);
    return e ? e->owner : -1;
}

RmiStatus
GranuleTracker::delegate(PhysAddr addr)
{
    if (!granuleAligned(addr))
        return RmiStatus::BadAddress;
    const std::uint64_t key = keyOf(addr);
    std::size_t pos = 0;
    Block* b = blockOf(key, pos);
    if (!b) {
        b = dir_.emplace(dir_.begin() + static_cast<std::ptrdiff_t>(pos),
                         key, std::make_unique<Block>())
                ->second.get();
    }
    Entry& e = b->entries[slotOf(addr)];
    if (e.state != GranuleState::Undelegated)
        return RmiStatus::BadState;
    e = Entry{GranuleState::Delegated, -1};
    ++b->tracked;
    return RmiStatus::Success;
}

RmiStatus
GranuleTracker::undelegate(PhysAddr addr)
{
    if (!granuleAligned(addr))
        return RmiStatus::BadAddress;
    std::size_t pos = 0;
    Block* b = blockOf(keyOf(addr), pos);
    if (!b || b->entries[slotOf(addr)].state != GranuleState::Delegated)
        return RmiStatus::BadState;
    b->entries[slotOf(addr)] = Entry{};
    if (--b->tracked == 0) // nothing left to track: drop the block
        dir_.erase(dir_.begin() + static_cast<std::ptrdiff_t>(pos));
    return RmiStatus::Success;
}

RmiStatus
GranuleTracker::assign(PhysAddr addr, GranuleState to, int realm)
{
    if (!granuleAligned(addr))
        return RmiStatus::BadAddress;
    if (to == GranuleState::Undelegated || to == GranuleState::Delegated)
        return RmiStatus::BadArgs;
    Entry* e = find(addr);
    if (!e || e->state != GranuleState::Delegated)
        return RmiStatus::BadState;
    *e = Entry{to, realm};
    std::vector<PhysAddr>& v = owned_[realm];
    v.insert(std::lower_bound(v.begin(), v.end(), addr), addr);
    return RmiStatus::Success;
}

RmiStatus
GranuleTracker::release(PhysAddr addr, GranuleState from, int realm)
{
    Entry* e = find(addr);
    if (!e || e->state != from || e->owner != realm)
        return RmiStatus::BadState;
    // The RMM scrubs contents before returning a granule to Delegated.
    *e = Entry{GranuleState::Delegated, -1};
    auto idx = owned_.find(realm);
    std::vector<PhysAddr>& v = idx->second;
    v.erase(std::lower_bound(v.begin(), v.end(), addr));
    if (v.empty())
        owned_.erase(idx);
    return RmiStatus::Success;
}

void
GranuleTracker::releaseOwned(int realm)
{
    auto idx = owned_.find(realm);
    if (idx == owned_.end())
        return;
    for (PhysAddr addr : idx->second)
        *find(addr) = Entry{GranuleState::Delegated, -1};
    owned_.erase(idx);
}

std::vector<std::pair<PhysAddr, GranuleState>>
GranuleTracker::owned(int realm) const
{
    std::vector<std::pair<PhysAddr, GranuleState>> out;
    auto idx = owned_.find(realm);
    if (idx == owned_.end())
        return out;
    out.reserve(idx->second.size());
    for (PhysAddr addr : idx->second)
        out.emplace_back(addr, find(addr)->state);
    return out;
}

bool
GranuleTracker::hostAccessible(PhysAddr addr) const
{
    // The granule protection table only exposes undelegated memory to
    // the normal world.
    return stateOf(addr & ~(granuleSize - 1)) ==
           GranuleState::Undelegated;
}

std::size_t
GranuleTracker::countInState(GranuleState s) const
{
    if (s == GranuleState::Undelegated)
        return 0; // untracked; infinite in principle
    std::size_t n = 0;
    for (const auto& [key, block] : dir_) {
        for (const Entry& e : block->entries)
            n += e.state == s ? 1 : 0;
    }
    return n;
}

std::size_t
GranuleTracker::trackedCount() const
{
    std::size_t n = 0;
    for (const auto& [key, block] : dir_)
        n += block->tracked;
    return n;
}

} // namespace cg::rmm
