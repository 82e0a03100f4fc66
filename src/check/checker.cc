#include "check/checker.hh"

#include <sstream>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace cg::check {

const char*
leakKindName(LeakKind k)
{
    switch (k) {
      case LeakKind::ProbeResidue:
        return "probe-residue";
      case LeakKind::DirtyEnter:
        return "dirty-enter";
      case LeakKind::DirtyHandback:
        return "dirty-handback";
    }
    return "?";
}

IsolationChecker::IsolationChecker(const sim::EventQueue& queue)
    : IsolationChecker(queue, Config{})
{
}

IsolationChecker::IsolationChecker(const sim::EventQueue& queue,
                                   Config cfg)
    : queue_(queue), cfg_(cfg)
{
}

int
IsolationChecker::registerStructure(std::string name, CoreId core)
{
    int sid = static_cast<int>(structs_.size());
    structs_.push_back(StructState{std::move(name), core, {}});
    if (core != sim::invalidCore) {
        if (static_cast<std::size_t>(core) >= byCore_.size())
            byCore_.resize(core + 1);
        byCore_[core].push_back(sid);
    }
    return sid;
}

IsolationChecker::StructState&
IsolationChecker::state(int sid)
{
    CG_ASSERT(sid >= 0 && static_cast<std::size_t>(sid) < structs_.size(),
              "bad checker structure id");
    return structs_[sid];
}

IsolationChecker::Residue*
IsolationChecker::findResidue(StructState& st, DomainId d)
{
    for (auto& r : st.resident)
        if (r.dom == d)
            return &r;
    return nullptr;
}

void
IsolationChecker::dropResidue(StructState& st, DomainId d)
{
    for (auto it = st.resident.begin(); it != st.resident.end(); ++it) {
        if (it->dom == d) {
            st.resident.erase(it);
            return;
        }
    }
}

DomainId
IsolationChecker::occupantOf(CoreId core) const
{
    if (core < 0 || static_cast<std::size_t>(core) >= occupants_.size())
        return sim::hostDomain;
    return occupants_[core];
}

std::uint64_t
IsolationChecker::bumpEvent()
{
    events_.inc();
    return seq_++;
}

void
IsolationChecker::report(LeakKind kind, const StructState& st,
                         const Residue& res, DomainId observer)
{
    total_.inc();
    perKind_[static_cast<std::size_t>(kind)].inc();

    LeakEdge e;
    e.kind = kind;
    e.structure = st.name;
    e.core = st.core;
    e.victim = res.dom;
    e.observer = observer;
    e.touchTick = res.lastTouch;
    e.leakTick = queue_.now();
    // seq_ - 1 is the observing event itself; count what lies strictly
    // between it and the victim's touch.
    e.eventsBetween =
        seq_ >= res.touchSeq + 2 ? seq_ - res.touchSeq - 2 : 0;
    if (edges_.size() < cfg_.maxStoredEdges)
        edges_.push_back(e);

    if (tracer_) {
        tracer_->instant("leak-edge", sim::Tracer::coresPid,
                         st.core, leakKindName(kind),
                         static_cast<std::uint64_t>(res.dom));
    }

    if (cfg_.abortOnLeak) {
        sim::panic("isolation leak edge: %s on %s (core %d): victim domain "
              "%d observable by domain %d (touch @%llu, leak @%llu, %llu "
              "events between)",
              leakKindName(kind), st.name.c_str(), int(st.core),
              int(res.dom), int(observer),
              static_cast<unsigned long long>(res.lastTouch),
              static_cast<unsigned long long>(e.leakTick),
              static_cast<unsigned long long>(e.eventsBetween));
    }
}

void
IsolationChecker::sweepCore(CoreId core, DomainId observer, LeakKind kind)
{
    if (core < 0 || static_cast<std::size_t>(core) >= byCore_.size())
        return;
    for (int sid : byCore_[core]) {
        auto& st = structs_[sid];
        for (auto& res : st.resident) {
            if (res.dom == observer)
                continue;
            if (kind == LeakKind::DirtyHandback) {
                if (res.handbackReported)
                    continue;
                res.handbackReported = true;
            }
            report(kind, st, res, observer);
        }
    }
}

void
IsolationChecker::onTouch(int sid, DomainId d, std::size_t entries)
{
    auto& st = state(sid);
    bumpEvent();
    if (d < sim::firstVmDomain)
        return; // host/monitor residue is not confidential
    if (entries == 0) {
        dropResidue(st, d);
        return;
    }
    if (auto* res = findResidue(st, d)) {
        res->lastTouch = queue_.now();
        res->touchSeq = seq_ - 1;
        res->handbackReported = false;
    } else {
        st.resident.push_back(
            Residue{d, queue_.now(), seq_ - 1, false});
    }
}

void
IsolationChecker::onEvict(int sid, DomainId d)
{
    auto& st = state(sid);
    bumpEvent();
    if (d < sim::firstVmDomain)
        return;
    dropResidue(st, d);
}

void
IsolationChecker::onProbe(int sid, DomainId probed, std::size_t count)
{
    auto& st = state(sid);
    bumpEvent();
    probes_.inc();
    if (st.core == sim::invalidCore)
        return; // shared structures are out of core gapping's scope
    if (count == 0 || probed < sim::firstVmDomain)
        return;
    auto* res = findResidue(st, probed);
    if (!res)
        return;
    DomainId observer = occupantOf(st.core);
    if (observer == probed)
        return; // a domain may observe itself
    report(LeakKind::ProbeResidue, st, *res, observer);
}

void
IsolationChecker::onProbeForeign(int sid, DomainId prober,
                                 std::size_t count)
{
    auto& st = state(sid);
    bumpEvent();
    probes_.inc();
    if (st.core == sim::invalidCore || count == 0)
        return;
    // The prober saw `count` foreign entries; every resident realm
    // domain other than the prober is an observable victim.
    for (auto& res : st.resident) {
        if (res.dom == prober)
            continue;
        report(LeakKind::ProbeResidue, st, res, prober);
    }
}

void
IsolationChecker::onFlushDomain(int sid, DomainId d)
{
    auto& st = state(sid);
    bumpEvent();
    dropResidue(st, d);
}

void
IsolationChecker::onFlushAll(int sid)
{
    auto& st = state(sid);
    bumpEvent();
    st.resident.clear();
}

void
IsolationChecker::onOccupant(CoreId core, DomainId d)
{
    if (core < 0)
        return;
    bumpEvent();
    if (static_cast<std::size_t>(core) >= occupants_.size())
        occupants_.resize(core + 1, sim::hostDomain);
    occupants_[core] = d;
}

void
IsolationChecker::onRecEnter(CoreId core, DomainId d)
{
    bumpEvent();
    sweepCore(core, d, LeakKind::DirtyEnter);
}

void
IsolationChecker::onRecExit(CoreId core, DomainId d)
{
    (void)core;
    (void)d;
    bumpEvent();
}

void
IsolationChecker::onNormalWorldReturn(CoreId core)
{
    bumpEvent();
    sweepCore(core, sim::hostDomain, LeakKind::DirtyHandback);
}

void
IsolationChecker::onMigrationHandback(CoreId core)
{
    bumpEvent();
    sweepCore(core, sim::hostDomain, LeakKind::DirtyHandback);
}

void
IsolationChecker::onHotplug(CoreId core, bool offline)
{
    bumpEvent();
    if (!offline) {
        // The host reclaimed the core: anything confidential still
        // resident is observable from the normal world.
        sweepCore(core, sim::hostDomain, LeakKind::DirtyHandback);
    }
}

std::string
IsolationChecker::dumpText() const
{
    std::ostringstream os;
    os << "leak edges: " << total_.value() << " ("
       << edges_.size() << " stored, " << events_.value()
       << " events observed)\n";
    for (const auto& e : edges_) {
        os << "  " << leakKindName(e.kind) << " " << e.structure
           << " core=" << e.core << " victim=" << e.victim
           << " observer=" << e.observer << " touch@" << e.touchTick
           << " leak@" << e.leakTick << " window=" << e.eventsBetween
           << "\n";
    }
    return os.str();
}

void
IsolationChecker::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "check");
    statGroup_.add("events", events_);
    statGroup_.add("probes", probes_);
    statGroup_.add("leakEdges.total", total_);
    for (int k = 0; k < numLeakKinds; ++k) {
        statGroup_.add(std::string("leakEdges.") +
                           leakKindName(static_cast<LeakKind>(k)),
                       perKind_[k]);
    }
}

} // namespace cg::check
