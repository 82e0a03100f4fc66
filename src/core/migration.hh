/**
 * @file
 * Realm live migration between core pools (DESIGN.md section 12).
 *
 * Core gapping's weak spot at scale is stranded dedicated cores: once
 * realms fragment the pools, the only release valve is migrating a
 * running realm — the fragmentation-driven rebind section 3 of the
 * paper anticipates. The MigrationController drives one GappedVm
 * through the RMM's migration RMIs as a fault-tolerant flow:
 *
 *   pause (bounded)   -> trySuspend: park every vCPU run loop
 *   prepare           -> rmm::migratePrepare snapshots granules+bindings
 *   copy (resumable)  -> delegate destination granules, batched
 *                        migrateCopy with stall retry/backoff
 *   switch cores      -> retire source monitor loops, dedicate the
 *                        destination pool via hotplug, migrateBindRec
 *   commit            -> migrateCommit rewrites granule refs (point of
 *                        no return)
 *   handback          -> scrub-verified source teardown: scrub (or
 *                        verify-and-repair) each source core, tell the
 *                        checker (onMigrationHandback), return the
 *                        cores to the host, release planner holds
 *   resume            -> unpark the run loops on the new cores
 *
 * Every pre-commit failure — an injected migration-abort, a copy that
 * stalls past its retry budget, a hotplug refusal, a bind rejection —
 * rolls back to the source placement completely: destination granules
 * are released and undelegated, bindings restored, monitors respawned
 * on the source cores, and the guest resumes as if nothing happened.
 * A realm is never stranded mid-flight and no granule leaks. A hung
 * monitor (trySuspend timeout) refuses the migration; terminate() is
 * the caller's escalation, exactly as for any other hang.
 */

#ifndef CG_CORE_MIGRATION_HH
#define CG_CORE_MIGRATION_HH

#include <vector>

#include "core/gapped_vm.hh"
#include "rmm/granule.hh"

namespace cg::core {

class CorePlanner;

struct MigrationConfig {
    /** Whole-flow attempts (an aborted attempt is retried). */
    int maxAttempts = 3;
    /** Copy-batch retries after an injected stall. */
    int maxCopyRetries = 8;
    /** Initial retry backoff; doubles per retry. */
    sim::Tick retryBackoff = 200 * sim::usec;
    /** Granules per migrateCopy batch. */
    std::size_t copyBatch = 64;
};

enum class MigrateResult {
    Committed,  ///< realm now runs on the destination pool
    RolledBack, ///< all attempts failed; realm intact on the source
    Refused,    ///< could not start (no plan / hung monitor / state)
};

const char* migrateResultName(MigrateResult r);

class MigrationController
{
  public:
    MigrationController(GappedVm& vm, CorePlanner* planner,
                        MigrationConfig cfg = {});

    /**
     * Defrag policy entry point: ask the planner for a strictly
     * improving contiguous destination (planDefragMove), reserve it,
     * and migrate. Refused when no improving move exists or the VM
     * has no planner.
     */
    sim::Proc<MigrateResult> migrate();

    /** Migrate to an explicit destination pool (one core per vCPU).
     * Reserves @p dest with the VM's planner when it has one. */
    sim::Proc<MigrateResult> migrateTo(std::vector<sim::CoreId> dest);

    /** @{ Outcome counters (also in stats as "migrate.<vm>."). */
    std::uint64_t committed() const { return committed_.value(); }
    std::uint64_t rolledBack() const { return rolledBack_.value(); }
    std::uint64_t refused() const { return refused_.value(); }
    std::uint64_t copyRetries() const { return copyRetries_.value(); }
    /** @} */

    /** Register counters under "migrate.<vm>." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

  private:
    /** One end-to-end attempt; false = rolled back (retryable,
     * unless @p refused_out). @p abort_out reports an injected
     * migration-abort (noteRecovered fires on a later commit). */
    sim::Proc<bool> attempt(const std::vector<sim::CoreId>& dest,
                            bool& refused_out, bool& abort_out);
    /** Undo a partial attempt back to the source placement,
     * undelegating @p dest_granules. */
    sim::Proc<void> rollbackAttempt(
        const std::vector<sim::CoreId>& dest_taken, bool prepared,
        const std::vector<rmm::PhysAddr>& dest_granules,
        bool monitors_retired);

    GappedVm& vm_;
    CorePlanner* planner_;
    MigrationConfig cfg_;
    sim::Counter committed_;
    sim::Counter rolledBack_;
    sim::Counter refused_;
    sim::Counter copyRetries_;
    sim::StatGroup statGroup_;
};

} // namespace cg::core

#endif // CG_CORE_MIGRATION_HH
