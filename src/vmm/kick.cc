#include "vmm/kick.hh"

#include <algorithm>

namespace cg::vmm {

KickBroker::KickBroker(host::Kernel& kernel)
    : kernel_(kernel), ipi_(kernel.allocateIpi())
{
    kernel_.setIpiHandler(ipi_,
                          [this](sim::CoreId c) { onIpi(c); });
}

void
KickBroker::kick(guest::VCpu& v)
{
    const sim::CoreId c = v.currentCore();
    if (c == sim::invalidCore)
        return; // not in guest: its runner is already in host code
    auto& q = pending_[c];
    if (std::find(q.begin(), q.end(), &v) == q.end())
        q.push_back(&v);
    ++sent_;
    kernel_.sendIpi(c, ipi_);
}

void
KickGate::publishArmed(sim::Tick delay)
{
    if (armed_ || pending_ != sim::invalidEventId)
        return;
    ++publishes_;
    // Captures only `this`, so the event fits EventFn's inline buffer
    // and a publish does not allocate.
    pending_ = queue_.scheduleIn(delay, [this] {
        pending_ = sim::invalidEventId;
        armed_ = true;
        // The flag is now guest-visible; close the lost-kick window by
        // re-checking for work that raced the publish.
        onVisible_();
    });
}

void
KickBroker::onIpi(sim::CoreId core)
{
    auto it = pending_.find(core);
    if (it == pending_.end())
        return;
    std::vector<guest::VCpu*> batch;
    batch.swap(it->second);
    for (guest::VCpu* v : batch) {
        // Only exit vCPUs still executing guest code; the rest already
        // returned to host for another reason.
        if (v->entered())
            v->forceExit(rmm::ExitReason::HostKick);
    }
}

} // namespace cg::vmm
