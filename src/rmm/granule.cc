#include "rmm/granule.hh"

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

GranuleState
GranuleTracker::stateOf(PhysAddr addr) const
{
    auto it = entries_.find(addr);
    return it == entries_.end() ? GranuleState::Undelegated
                                : it->second.state;
}

int
GranuleTracker::ownerOf(PhysAddr addr) const
{
    auto it = entries_.find(addr);
    return it == entries_.end() ? -1 : it->second.owner;
}

RmiStatus
GranuleTracker::delegate(PhysAddr addr)
{
    if (!granuleAligned(addr))
        return RmiStatus::BadAddress;
    if (stateOf(addr) != GranuleState::Undelegated)
        return RmiStatus::BadState;
    entries_[addr] = Entry{GranuleState::Delegated, -1};
    return RmiStatus::Success;
}

RmiStatus
GranuleTracker::undelegate(PhysAddr addr)
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
GranuleTracker::assign(PhysAddr addr, GranuleState to, int realm)
{
    if (!granuleAligned(addr))
        return RmiStatus::BadAddress;
    if (to == GranuleState::Undelegated || to == GranuleState::Delegated)
        return RmiStatus::BadArgs;
    auto it = entries_.find(addr);
    if (it == entries_.end() ||
        it->second.state != GranuleState::Delegated) {
        return RmiStatus::BadState;
    }
    it->second = Entry{to, realm};
    owned_[realm].insert(addr);
    return RmiStatus::Success;
}

RmiStatus
GranuleTracker::release(PhysAddr addr, GranuleState from, int realm)
{
    auto it = entries_.find(addr);
    if (it == entries_.end() || it->second.state != from ||
        it->second.owner != realm) {
        return RmiStatus::BadState;
    }
    // The RMM scrubs contents before returning a granule to Delegated.
    it->second = Entry{GranuleState::Delegated, -1};
    auto idx = owned_.find(realm);
    idx->second.erase(addr);
    if (idx->second.empty())
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
        entries_.find(addr)->second = Entry{GranuleState::Delegated, -1};
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
        out.emplace_back(addr, entries_.find(addr)->second.state);
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
    for (const auto& [addr, e] : entries_)
        n += e.state == s ? 1 : 0;
    return n;
}

} // namespace cg::rmm
