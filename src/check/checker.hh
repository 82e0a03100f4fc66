/**
 * @file
 * cg::check — a dynamic information-flow checker for domain isolation.
 *
 * The paper's core claim (§2.4, §4) is an *invariant*, not a data
 * point: after core gapping, no per-core microarchitectural structure
 * ever holds realm-domain residue observable by the untrusted host
 * without an intervening scrub. The attack suite samples that claim at
 * a few probe points; this checker proves it continuously, the way
 * KCSAN/lockdep turned the kernel's implicit concurrency rules into
 * machine-checked ones.
 *
 * Every access to a tagged structure — touch, probe, flush — and every
 * control-plane transition (REC enter/exit, world switch back to
 * normal, hotplug handoff/reclaim) becomes an event
 * (structure, core, domain, tick, kind). The checker maintains
 * per-(core, structure) residency state (which realm domains hold
 * entries, when they last touched, when the structure was last
 * scrubbed) and flags three kinds of **leak edges**:
 *
 *  - probe-residue:   a probe observes realm-domain residue on a
 *                     per-core structure from a different domain with
 *                     no flushDomain/flushAll since the realm's last
 *                     touch;
 *  - dirty-enter:     a realm is dispatched onto a core whose per-core
 *                     structures still hold a *different* realm's
 *                     residue (no scrub between tenants);
 *  - dirty-handback:  a core is returned to the normal world (teardown,
 *                     terminate, rebind, start rollback, hotplug
 *                     online) while a per-core structure still holds
 *                     realm entries.
 *
 * Violations become structured LeakEdge reports (structure, core, the
 * offending domains, the residue's touch tick and the observation
 * tick, and the number of intervening events), counters in the
 * StatRegistry ("check.leakEdges.*"), and "leak-edge" tracepoints.
 * With Config::abortOnLeak the first edge panics, turning any test or
 * bench run into a hard isolation gate.
 *
 * Determinism contract (same as the Tracer and a disarmed FaultPlan):
 * the checker schedules no events, consumes no randomness, and never
 * mutates the structures it watches. An unbound structure pays a
 * single branch per choke point, so builds and runs without `--check`
 * are byte-identical to a tree without this subsystem.
 */

#ifndef CG_CHECK_CHECKER_HH
#define CG_CHECK_CHECKER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace cg::sim {
class EventQueue;
class Tracer;
}

namespace cg::check {

using sim::CoreId;
using sim::DomainId;
using sim::Tick;

/** The three ways "sharing is leaking" can manifest (see file hdr). */
enum class LeakKind : int {
    ProbeResidue,
    DirtyEnter,
    DirtyHandback,
};

constexpr int numLeakKinds = 3;

/** Stable kebab-case kind name ("probe-residue", ...). */
const char* leakKindName(LeakKind k);

/** One detected isolation violation. */
struct LeakEdge {
    LeakKind kind = LeakKind::ProbeResidue;
    /** Structure name as registered ("core3.l1d", "llc"). */
    std::string structure;
    CoreId core = sim::invalidCore;
    /** The realm domain whose residue leaks. */
    DomainId victim = sim::invalidDomain;
    /** The domain that can observe it (prober, next tenant, or the
     * host for a dirty handback). */
    DomainId observer = sim::invalidDomain;
    /** When the victim last touched the structure. */
    Tick touchTick = 0;
    /** When the leak became observable (probe / enter / handback). */
    Tick leakTick = 0;
    /** Checker events between the two ticks (the event window). */
    std::uint64_t eventsBetween = 0;
};

/**
 * The per-simulation isolation checker. Construct one, attach it with
 * hw::Machine::attachChecker(), and every tagged structure and
 * control-plane choke point reports through it. One checker per
 * Machine; like the Tracer it is observation-only.
 */
class IsolationChecker
{
  public:
    struct Config {
        /** panic() on the first leak edge instead of recording it. */
        bool abortOnLeak = false;
        /** Stored LeakEdge cap (counters keep exact totals). */
        std::size_t maxStoredEdges = 256;
    };

    explicit IsolationChecker(const sim::EventQueue& queue);
    IsolationChecker(const sim::EventQueue& queue, Config cfg);

    IsolationChecker(const IsolationChecker&) = delete;
    IsolationChecker& operator=(const IsolationChecker&) = delete;

    /** @{ Binding (done by hw::Machine::attachChecker). */
    /** Register one structure; @p core is invalidCore for shared
     * structures (LLC, staging buffer), which never produce edges —
     * they are out of core gapping's scope. @return the structure id
     * the structure passes back in every event. */
    int registerStructure(std::string name, CoreId core);
    /** @} */

    /** @{ Data-path events (from hw::TaggedStructure). */
    /** Domain @p d now holds @p entries entries after a touch. */
    void onTouch(int sid, DomainId d, std::size_t entries);
    /** Eviction drove @p d's share to zero (no scrub happened). */
    void onEvict(int sid, DomainId d);
    /** A probe read @p probed's entry count (@p count observed). */
    void onProbe(int sid, DomainId probed, std::size_t count);
    /** A probe read the foreign-entry aggregate seen by @p prober. */
    void onProbeForeign(int sid, DomainId prober, std::size_t count);
    void onFlushDomain(int sid, DomainId d);
    void onFlushAll(int sid);
    /** @} */

    /** @{ Control-plane events. */
    /** The executing domain on @p core changed (hw::Core occupant). */
    void onOccupant(CoreId core, DomainId d);
    /** A REC of realm domain @p d is dispatched onto @p core. */
    void onRecEnter(CoreId core, DomainId d);
    /** The REC exited back to the monitor (event-window bookkeeping). */
    void onRecExit(CoreId core, DomainId d);
    /** @p core crossed back into the normal world. */
    void onNormalWorldReturn(CoreId core);
    /** Migration handed @p core's source back to the host: the
     * explicit scrub-verification choke point before the world
     * switch (suppresses a duplicate edge at the switch itself). */
    void onMigrationHandback(CoreId core);
    /** Hotplug: the host handed @p core away / reclaimed it. */
    void onHotplug(CoreId core, bool offline);
    /** @} */

    /** @{ Results. */
    /** Stored edges, oldest first (capped at maxStoredEdges). */
    const std::vector<LeakEdge>& edges() const { return edges_; }
    std::uint64_t edgeCount(LeakKind k) const
    {
        return perKind_[static_cast<std::size_t>(k)].value();
    }
    std::uint64_t edgeTotal() const { return total_.value(); }
    std::uint64_t eventCount() const { return events_.value(); }
    /** One line per stored edge, deterministic order. */
    std::string dumpText() const;
    /** @} */

    /**
     * Register "check.events", "check.probes", "check.leakEdges.*" in
     * @p reg. Only armed runs should call this, so unarmed stat dumps
     * stay identical to pre-checker builds.
     */
    void registerStats(sim::StatRegistry& reg);

    /** Emit "leak-edge" tracepoints through @p t (may be null). */
    void setTracer(sim::Tracer* t) { tracer_ = t; }

  private:
    /** Residency of one realm domain in one structure. */
    struct Residue {
        DomainId dom;
        Tick lastTouch;
        std::uint64_t touchSeq;
        /** A dirty-handback edge was already reported for this
         * residue; suppress repeats until the next touch. */
        bool handbackReported;
    };

    struct StructState {
        std::string name;
        CoreId core; ///< invalidCore: shared (never an edge)
        /** Realm domains (>= firstVmDomain) currently holding
         * entries; a handful per structure, linear scan. */
        std::vector<Residue> resident;
    };

    StructState& state(int sid);
    Residue* findResidue(StructState& st, DomainId d);
    void dropResidue(StructState& st, DomainId d);
    DomainId occupantOf(CoreId core) const;
    std::uint64_t bumpEvent();
    void report(LeakKind kind, const StructState& st,
                const Residue& res, DomainId observer);
    /** Flag every realm residue on @p core's structures observable by
     * @p observer as a @p kind edge. */
    void sweepCore(CoreId core, DomainId observer, LeakKind kind);

    const sim::EventQueue& queue_;
    Config cfg_;
    sim::Tracer* tracer_ = nullptr;
    std::vector<StructState> structs_;
    /** Structure ids per core, for the control-plane sweeps. */
    std::vector<std::vector<int>> byCore_;
    /** Last-set occupant per core (hostDomain before anyone runs). */
    std::vector<DomainId> occupants_;
    std::uint64_t seq_ = 0;
    std::vector<LeakEdge> edges_;
    sim::Counter events_;
    sim::Counter probes_;
    sim::Counter total_;
    std::array<sim::Counter, numLeakKinds> perKind_{};
    sim::StatGroup statGroup_;
};

} // namespace cg::check

#endif // CG_CHECK_CHECKER_HH
