/**
 * @file
 * Deterministic fault injection for the control plane.
 *
 * A FaultPlan is a seed-derived, schedule-based fault source owned by
 * the Simulation (alongside tracer() and stats()). Injection points in
 * the stack query it at well-known, typed sites — "should the SGI I am
 * about to send be dropped?" — and the plan answers from declarative
 * trigger predicates (nth occurrence of the site, tick window,
 * probability). All probabilistic triggers draw from the plan's own
 * xoshiro256++ stream, seeded from the plan seed, so a given
 * (simulation seed, fault plan) pair replays bit-identically
 * (invariant I9 extended).
 *
 * The disarmed plan is the determinism contract: every query is a
 * single branch on armed(), schedules no events, consumes no
 * randomness, and registers no stats — a run without a plan is
 * byte-identical to a build without this subsystem.
 */

#ifndef CG_SIM_FAULT_HH
#define CG_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace cg::sim {

class EventQueue;
class Tracer;

/**
 * The typed injection sites. Each names one control-plane hazard of
 * the core-gapped design (DESIGN.md section 9 catalogs the recovery
 * policy per site).
 */
enum class FaultSite : int {
    IpiDrop,            ///< an SGI vanishes in the interconnect
    IpiDelay,           ///< an SGI is delayed by the spec's param
    DoorbellLost,       ///< a monitor exit-doorbell ring is lost
    SyncRpcStall,       ///< a sync-RPC wire poke never lands
    MonitorHang,        ///< a monitor core loop stops responding
    HotplugOfflineFail, ///< a core refuses to offline
    HotplugOnlineFail,  ///< a core refuses to come back online
    RmiTransientError,  ///< an RMI call bounces with a Busy status
    ScrubSkip,          ///< a teardown/rebind scrub is silently skipped
    VirtioLostKick,     ///< EVENT_IDX recheck-after-publish is skipped
    MigrationAbort,     ///< a realm migration phase aborts mid-flight
    RttCopyStall,       ///< a migration RTT/granule copy batch stalls
};

constexpr int numFaultSites = 12;

/** Stable kebab-case site name ("ipi-drop", ...). */
const char* faultSiteName(FaultSite s);

/** Parse a site name; nullopt if unknown. */
std::optional<FaultSite> faultSiteFromName(const std::string& name);

/**
 * One line per site, "  <name>\n" — the menu printed by `--faults
 * help` and appended to the unknown-site parse error.
 */
std::string faultSiteListText();

/**
 * One fault declaration. All predicates must hold for the fault to
 * fire: the site's occurrence count reaches @c nth (if nonzero), the
 * current tick lies in [windowStart, windowEnd], and a Bernoulli draw
 * with @c probability succeeds (drawn from the plan RNG only when the
 * other predicates already hold). A spec stops firing after
 * @c maxInjections hits (0 = unbounded).
 */
struct FaultSpec {
    FaultSite site = FaultSite::IpiDrop;
    /** Fire on the nth occurrence of the site (1-based; 0 = any). */
    std::uint64_t nth = 0;
    /** Bernoulli trigger probability (1.0 = always). */
    double probability = 1.0;
    /** Only fire inside this simulated-time window. */
    Tick windowStart = 0;
    Tick windowEnd = maxTick;
    /** Stop after this many injections from this spec (0 = never). */
    std::uint64_t maxInjections = 1;
    /** Site-specific magnitude (e.g. added delay); 0 = site default. */
    Tick param = 0;
};

/**
 * The simulation's fault source. Disarmed (the default) it is inert;
 * arm(seed) + add(spec) turn specific queries into injections.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const EventQueue& q) : queue_(q) {}

    FaultPlan(const FaultPlan&) = delete;
    FaultPlan& operator=(const FaultPlan&) = delete;

    /** Enable injection; resets counters and reseeds the plan RNG. */
    void arm(std::uint64_t seed);

    /** Back to inert (counters keep their values for inspection). */
    void disarm() { armed_ = false; }

    bool armed() const { return armed_; }

    /** Declare a fault (plan must be armed first). */
    void add(const FaultSpec& spec);

    /** Convenience: arm and add every spec of a parsed plan. */
    void arm(std::uint64_t seed, const std::vector<FaultSpec>& specs);

    /**
     * The injection-point query: records one occurrence of @p site and
     * returns the firing spec's param if a declared fault triggers
     * here. Callers interpret a 0 param as the site default. Disarmed,
     * this is a single branch: no counting, no randomness, no events.
     */
    std::optional<Tick> query(FaultSite site);

    /** @{ Recovery bookkeeping: the recovery paths report back so the
     * plan can expose detection/recovery latency per site (measured
     * from the most recent injection at that site). */
    void noteDetected(FaultSite site);
    void noteRecovered(FaultSite site);
    /** @} */

    /** Occurrences of @p site observed while armed. */
    std::uint64_t occurrences(FaultSite site) const
    {
        return occ_[static_cast<size_t>(site)];
    }

    /** Injections fired at @p site. */
    std::uint64_t injected(FaultSite site) const
    {
        return injected_[static_cast<size_t>(site)].value();
    }

    std::uint64_t injectedTotal() const;

    const LatencyStat& detectionLatency(FaultSite site) const
    {
        return detected_[static_cast<size_t>(site)];
    }
    const LatencyStat& recoveryLatency(FaultSite site) const
    {
        return recovered_[static_cast<size_t>(site)];
    }

    /**
     * Register "faults.injected.<site>" / "faults.detected.<site>" /
     * "faults.recovered.<site>" in @p reg. Only armed runs should
     * call this, so disarmed stat dumps stay identical to pre-fault
     * builds.
     */
    void registerStats(StatRegistry& reg);

    /** Emit "fault-inject" tracepoints through @p t (may be null). */
    void setTracer(Tracer* t) { tracer_ = t; }

    /**
     * Parse a textual plan: ';'-separated clauses, each
     * "<site>[:key=value]..." with keys nth=<n>, p=<probability>,
     * from=<time>, until=<time>, max=<n>, param=<time>; times take
     * ns/us/ms/s suffixes ("ipi-drop:nth=3;syncrpc-stall:p=0.1:max=2").
     * Throws FatalError on malformed input.
     */
    static std::vector<FaultSpec> parse(const std::string& text);

  private:
    struct ArmedSpec {
        FaultSpec spec;
        std::uint64_t fired = 0;
    };

    const EventQueue& queue_;
    Tracer* tracer_ = nullptr;
    bool armed_ = false;
    Rng rng_;
    std::vector<ArmedSpec> specs_;
    std::array<std::uint64_t, numFaultSites> occ_{};
    std::array<Counter, numFaultSites> injected_{};
    std::array<Tick, numFaultSites> lastInjectedAt_{};
    std::array<LatencyStat, numFaultSites> detected_{};
    std::array<LatencyStat, numFaultSites> recovered_{};
    StatGroup statGroup_;
};

} // namespace cg::sim

#endif // CG_SIM_FAULT_HH
