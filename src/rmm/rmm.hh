/**
 * @file
 * The Realm Management Monitor: the CVM security monitor of the paper's
 * unified model (table 1: RMM / TDX module / TSM).
 *
 * Owns the granule state machine, realm translation tables, realm and
 * REC lifecycles, measurements, and the REC-enter path. Two behaviours
 * from the paper's ~860-line RMM patch are controlled by RmmConfig:
 *
 *  - coreGapped: enforce a static binding of each REC to the physical
 *    core of its first dispatch, and refuse dispatch anywhere else
 *    (RmiStatus::WrongCore) — design change 1 in section 3.
 *  - delegateInterrupts: emulate the virtual timer and virtual IPIs
 *    inside the RMM instead of exiting to the host, hiding the
 *    delegated interrupts from the host's list-register view
 *    (section 4.4, fig. 5).
 *
 * The RMM never charges transport costs itself: callers (the same-core
 * SMC path or the cross-core RPC path) charge those, so table 2's three
 * transports share this one implementation.
 */

#ifndef CG_RMM_RMM_HH
#define CG_RMM_RMM_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "rmm/exit.hh"
#include "rmm/granule.hh"
#include "rmm/guest_context.hh"
#include "rmm/measurement.hh"
#include "rmm/rtt.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"

namespace cg::rmm {

using sim::CoreId;
using sim::Proc;
using sim::Tick;

/** Realm lifecycle states (RMM specification). A destroyed realm is
 * freed; its id stays invalid. */
enum class RealmState { New, Active };

/** REC (vCPU context) states. */
enum class RecState { Ready, Running, Stopped, Destroyed };

/**
 * Live-migration phases of one realm (DESIGN.md section 12). Idle ->
 * Prepared -> Copying -> Copied -> (commit | abort) -> Idle. While the
 * phase is not Idle every other lifecycle RMI on the realm, and every
 * RMI that adds or drops one of its granules, bounces with Busy, so a
 * migration can never interleave with enter/destroy or change the
 * granule set prepare snapshotted.
 */
enum class MigrationPhase { Idle, Prepared, Copying, Copied };

struct RealmParams {
    std::string name = "realm";
    std::uint64_t personalization = 0;
};

/** One realm execution context (confidential vCPU). */
class Rec
{
  public:
    int index = -1;
    RecState state = RecState::Destroyed;
    PhysAddr granule = 0;
    /** Core-gapping: the core this REC is statically bound to. */
    CoreId boundCore = sim::invalidCore;
    /** When the binding last changed (rebind rate limiting). */
    Tick lastRebind = 0;
    GuestContext* guest = nullptr;
};

/** In-flight live-migration bookkeeping for one realm. */
struct RealmMigration {
    MigrationPhase phase = MigrationPhase::Idle;
    /** Source granules snapshotted at prepare, ascending address;
     * srcGranules[i] is mirrored to dest[i]. */
    std::vector<std::pair<PhysAddr, GranuleState>> srcGranules;
    /** Host-delegated destination granules (set by the first copy). */
    std::vector<PhysAddr> dest;
    /** Copy cursor into srcGranules (resumable after a stall). */
    std::size_t copied = 0;
    /** Core bindings at prepare time, for rollback. */
    struct SavedBinding {
        int rec = -1;
        CoreId core = sim::invalidCore;
        Tick lastRebind = 0;
    };
    std::vector<SavedBinding> savedBindings;
    /** RECs already rebound onto destination cores. */
    std::vector<int> rebound;
};

/** One confidential VM. */
class Realm
{
  public:
    int id = -1;
    RealmState state = RealmState::New;
    sim::DomainId domain = sim::invalidDomain;
    RealmParams params;
    PhysAddr rdGranule = 0;
    Rtt rtt;
    Measurement measurement;
    std::vector<Rec> recs;
    RealmMigration mig;
};

struct RmmConfig {
    bool coreGapped = false;
    bool delegateInterrupts = false;
    /**
     * Minimum interval between rebinds of one REC (section 3 envisages
     * binding changes only at coarse, tens-of-seconds time scales, to
     * bound fragmentation-driven migration without reopening the
     * scheduling side channel).
     */
    Tick minRebindInterval = 10 * sim::sec;
    /**
     * Handle WFI without exiting to the host by idling on the
     * dedicated core until an event (only meaningful when coreGapped;
     * there is no other work for that core anyway, section 4.3).
     */
    bool localWfi = false;
    /**
     * Scrub verification: after a scrub point, audit the core's tagged
     * structures for leftover realm residue and re-flush if any is
     * found (detect-and-repair for the scrub-skip fault). Off by
     * default — the default monitor *trusts* its scrub code, which is
     * exactly what lets the isolation checker prove a skipped scrub
     * leaks (the dirty-handback oracle). Long soaks turn this on to
     * run fault-armed yet leak-free.
     */
    bool verifyScrubs = false;
};

/** Arguments to REC enter (subset of RmiRecEnter). */
struct RecEnterArgs {
    /** Virtual interrupts the host wants installed (fig. 5, step 1). */
    std::vector<hw::IntId> injectVirqs;
    /** Completion value for a pending MMIO read. */
    std::optional<std::uint64_t> mmioResponse;
};

/**
 * How to execute guest code during recEnter. The default strategy is
 * GuestContext::runUntilExit (free-running, for dedicated cores); the
 * shared-core transport substitutes a host-scheduler-coupled run.
 */
using GuestRunFn =
    std::function<Proc<ExitInfo>(GuestContext&, CoreId)>;

/** Result of REC enter (subset of RmiRecExit). */
struct RecRunResult {
    RmiStatus status = RmiStatus::Success;
    ExitInfo exit;
    /** The host-visible (filtered) list-register view (fig. 5). */
    std::vector<hw::IntId> hostLrView;
};

struct RmmStats {
    sim::Counter exitsToHost;
    sim::Counter irqRelatedExitsToHost;
    sim::Counter delegatedTimerEvents;
    sim::Counter delegatedIpis;
    sim::Counter localWfiWaits;
    sim::Counter rmiCalls;
    sim::Counter wrongCoreRejections;
    sim::Counter rebinds;
    sim::Counter rebindsRefused;
    /** Running RECs force-stopped by the host (hung-monitor reclaim). */
    sim::Counter forcedStops;
    /** Guest-initiated realm services handled inside the monitor. */
    sim::Counter rsiCalls;
    /** Host-supplied injections of monitor-owned interrupt ids that
     * the monitor refused (forged timer ticks / virtual IPIs). */
    sim::Counter filteredInjections;
    /** @{ Live migration (DESIGN.md section 12). */
    sim::Counter migrationsStarted;
    sim::Counter migrationsCommitted;
    sim::Counter migrationsAborted;
    sim::Counter migrationGranulesCopied;
    /** Copy batches bounced by an injected rtt-copy-stall. */
    sim::Counter migrationStalls;
    /** @} */
    /** Skipped scrubs caught and re-flushed (verifyScrubs). */
    sim::Counter scrubRepairs;
};

class Rmm
{
  public:
    Rmm(hw::Machine& machine, RmmConfig cfg);

    const RmmConfig& config() const { return cfg_; }
    RmmStats& stats() { return stats_; }

    /** Register the monitor's counters under "rmm." in @p reg. */
    void registerStats(sim::StatRegistry& reg);
    GranuleTracker& granules() { return granules_; }
    hw::Machine& machine() { return machine_; }

    /** @{ RMI: granule management. */
    RmiStatus granuleDelegate(PhysAddr addr);
    RmiStatus granuleUndelegate(PhysAddr addr);
    /** @} */

    /** @{ RMI: realm lifecycle. */
    RmiStatus realmCreate(PhysAddr rd, const RealmParams& params,
                          int& realm_out);
    RmiStatus realmActivate(int realm);
    /** Release every granule the realm owns to Delegated and free the
     * realm (RTT, RECs, measurement); every REC must be destroyed. */
    RmiStatus realmDestroy(int realm);
    /** The realm with id @p id; nullptr once it is destroyed. */
    Realm* realm(int id);
    /** @} */

    /** @{ RMI: RTT and data. */
    RmiStatus rttCreate(int realm, Ipa ipa, int level, PhysAddr table);
    RmiStatus dataCreate(int realm, Ipa ipa, PhysAddr data,
                         std::uint64_t content);
    RmiStatus dataCreateUnknown(int realm, Ipa ipa, PhysAddr data);
    RmiStatus dataDestroy(int realm, Ipa ipa);
    /** @} */

    /** @{ RMI: RECs. */
    RmiStatus recCreate(int realm, PhysAddr granule, int& rec_out);
    RmiStatus recDestroy(int realm, int rec);

    /**
     * Host-forced stop of a REC whose monitor core loop stopped
     * responding (EL3-assisted reclamation; the "terminated by the
     * host" case of section 4.2). A Running REC is marked Stopped so
     * recDestroy can release its granule and core binding; the caller
     * must kill the monitor loop and scrub the core afterwards
     * (GappedVm::terminate does both).
     */
    RmiStatus recForceStop(int realm, int rec);
    /** Attach the guest executor (done by the VMM model at boot). */
    void setGuestContext(int realm, int rec, GuestContext* guest);
    /** @} */

    /**
     * RMI: REC enter — run a confidential vCPU on @p core until an
     * exit the host must handle. Internally loops over delegated
     * events when configured. Must be awaited from a process running
     * on @p core (the caller models that placement).
     */
    Proc<RecRunResult> recEnter(int realm, int rec, RecEnterArgs args,
                                CoreId core, GuestRunFn run_fn = {});

    /** Validation part of recEnter, applied before any cost: exposed
     * so transports can reject cheaply (and tests can probe I1/I3). */
    RmiStatus recEnterCheck(int realm, int rec, CoreId core) const;

    /**
     * Change a REC's core binding (the paper's deferred future work,
     * section 3). Only allowed when the REC is not running, onto a
     * core not dedicated to anyone, and no more often than
     * minRebindInterval; the monitor scrubs the guest's residue from
     * the old core before releasing it, so invariant I5 survives the
     * move.
     */
    RmiStatus recRebind(int realm, int rec, CoreId new_core);

    /**
     * @{ RMI: realm live migration (DESIGN.md section 12).
     *
     * The flow mirrors the granule-by-granule style of the paged RMIs:
     * prepare snapshots the realm's granules and core bindings (all
     * RECs must be paused), copy moves batches into host-delegated
     * destination granules, one per source granule (resumable with
     * the same list; an injected rtt-copy-stall bounces a batch with
     * Busy and no progress), bindRec moves each REC's dedicated-core
     * binding, and commit atomically rewrites
     * every granule reference (RD, RECs, RTT tables and leaves) to the
     * destination and releases the source granules. Abort at any
     * pre-commit point restores bindings and releases the partial
     * destination copy — the realm keeps running on the source as if
     * nothing happened. The RMM charges no transport/copy costs here
     * (same contract as every other RMI); the control plane charges
     * Costs::granuleCopy per granule.
     */
    RmiStatus migratePrepare(int realm);
    RmiStatus migrateCopy(int realm, const std::vector<PhysAddr>& dest,
                          std::size_t max_granules,
                          std::size_t& copied_out);
    RmiStatus migrateBindRec(int realm, int rec, CoreId new_core);
    RmiStatus migrateCommit(int realm);
    RmiStatus migrateAbort(int realm);
    MigrationPhase migrationPhase(int realm) const;
    /** Total granules a prepared migration must copy (0 if idle). */
    std::size_t migrationGranuleCount(int realm) const;
    /** @} */

    /**
     * Earliest tick at which recRebind would pass the rate limiter for
     * this REC (0 = immediately). The control plane uses this to back
     * off instead of dropping a refused rebind.
     */
    Tick rebindAllowedAt(int realm, int rec) const;

    /** RSI-equivalent: produce an attestation token for a realm. */
    RmiStatus attest(int realm, std::uint64_t challenge,
                     AttestationToken& out);

    /** The core a REC is bound to (invalidCore if unbound). */
    CoreId recBinding(int realm, int rec) const;

    /** Realm owning the dedicated @p core, or -1. */
    int dedicatedOwner(CoreId core) const;

    /** The attestation authority (shared with verifiers). */
    const AttestationAuthority& authority() const { return authority_; }

  private:
    Rec* findRec(int realm, int rec);
    const Rec* findRec(int realm, int rec) const;
    /** flushDomain(@p d) across @p core's tagged structures. */
    void scrubCore(CoreId core, sim::DomainId d);
    /** verifyScrubs audit: re-flush @p core if @p d residue remains;
     * @return true when a skipped scrub was caught and repaired. */
    bool repairSkippedScrub(CoreId core, sim::DomainId d);
    Proc<void> deliverVIpi(Realm& r, int target_rec);
    std::vector<hw::IntId> hostLrViewOf(GuestContext& g) const;
    Tick cost(Tick nominal);

    hw::Machine& machine_;
    RmmConfig cfg_;
    GranuleTracker granules_;
    std::vector<std::unique_ptr<Realm>> realms_;
    /** Core-gapping dedication table: core -> (realm, rec). */
    std::map<CoreId, std::pair<int, int>> dedicated_;
    AttestationAuthority authority_;
    RmmStats stats_;
    sim::StatGroup statGroup_;
    sim::DomainId nextDomain_ = sim::firstVmDomain;
};

} // namespace cg::rmm

#endif // CG_RMM_RMM_HH
