/**
 * @file
 * The core-gapped confidential VM runner — the paper's primary
 * contribution assembled: dedicated cores taken from the host via
 * hotplug and handed to the security monitor, vCPU run calls as
 * asynchronous cross-core RPCs with IPI-notified wake-up (fig. 4),
 * short RMM calls as busy-wait synchronous RPCs, and a kick path that
 * targets the REC's bound core.
 *
 * The Quarantine-style ablation (busyWaitRun) replaces the blocking
 * run call with yield-polling, reproducing the scalability collapse of
 * fig. 6's "busy waiting" lines.
 */

#ifndef CG_CORE_GAPPED_VM_HH
#define CG_CORE_GAPPED_VM_HH

#include <map>
#include <memory>
#include <vector>

#include "core/doorbell.hh"
#include "core/rpc.hh"
#include "vmm/kvm.hh"

namespace cg::core {

class CorePlanner;

struct GappedVmConfig {
    /** Dedicated guest cores, one per vCPU (from the CorePlanner). */
    std::vector<sim::CoreId> guestCores;
    /** Host cores for the vCPU threads, wake-up thread, and VMM. */
    host::CpuMask hostCores = host::CpuMask::single(0);
    /** Quarantine-style yield-polling instead of blocking run calls. */
    bool busyWaitRun = false;
    /**
     * Adaptive spin-then-sleep in the wake-up thread: before blocking
     * on the doorbell, spin up to this long polling for it. The spin
     * budget doubles after a hit (the doorbell arrived while spinning
     * — the workload is in a request burst, stay hot) and halves
     * after a miss, so idle VMs decay back to pure blocking. 0
     * disables the spin entirely; runs with 0 are byte-identical to
     * builds without this knob.
     */
    sim::Tick wakeSpinMax = 0;
    /**
     * The planner that reserved guestCores, if any. The runner then
     * owns the reservations' release: exactly once, on teardown or on
     * a failed start, with cores lost to hotplug failures quarantined
     * (kept reserved) so they are never handed out again (I7).
     */
    CorePlanner* planner = nullptr;
    /**
     * Scrub verification at teardown/migration handback: audit the
     * core's tagged structures after the scrub point and re-flush if
     * residue remains (detect-and-repair for scrub-skip injections).
     * Default off so the checker's must-fire tests still observe a
     * skipped scrub as a dirty-handback leak edge; long fault-armed
     * soaks turn it on (see rmm::RmmConfig::verifyScrubs).
     */
    bool verifyScrubs = false;
};

class GappedVm
{
  public:
    /**
     * @p kvm must be a SharedCoreCvm-mode KvmVm with a realm attached
     * via createRealmFor(); this runner replaces its vCPU threads and
     * its RMI transport with the cross-core machinery.
     */
    GappedVm(vmm::KvmVm& kvm, ExitDoorbell& doorbell,
             GappedVmConfig cfg);
    ~GappedVm();

    /**
     * Bring the CVM up: offline the dedicated cores (hotplug), hand
     * them to the monitor, and start the host-side threads. Await from
     * a process not running on the dedicated cores.
     * @return false if a dedicated core could not be offlined (after
     * one retry): every core taken so far is handed back, planner
     * reservations are released, and the VM is not running.
     */
    sim::Proc<bool> start();

    /**
     * After guest shutdown: destroy the realm (vmm::destroyRealm: RECs,
     * which releases the core bindings, then the realm, then its
     * granules go back to the host), stop monitor loops, scrub the
     * dedicated cores of guest residue, and hotplug them back online.
     */
    sim::Proc<void> teardown();

    /**
     * Host-initiated termination of a possibly-running CVM (the
     * "terminated by the host" case of section 4.2): force every vCPU
     * out of guest execution, stop its run loop, then tear down. The
     * guest gets no say; its state is scrubbed before the cores return
     * to the host.
     */
    sim::Proc<void> terminate();

    vmm::KvmVm& kvm() { return kvm_; }
    sim::Gate& shutdownGate() { return kvm_.shutdownGate(); }
    SyncRpcQueue& syncRpc() { return syncRpc_; }

    /**
     * Move a vCPU to a fresh dedicated core at runtime (the paper's
     * deferred coarse-timescale rebinding, section 3): park the vCPU
     * thread after its next exit, retire the old monitor loop,
     * dedicate @p new_core via hotplug, have the monitor rebind (and
     * scrub the old core), then resume on the new placement and hand
     * the old core back to the host.
     * @return false if the monitor refused the rebind.
     */
    sim::Proc<bool> rebindVcpu(int idx, sim::CoreId new_core);

    /** Current dedicated core of a vCPU. */
    sim::CoreId coreOf(int idx) const
    {
        return cfg_.guestCores.at(static_cast<size_t>(idx));
    }

    /**
     * Direct interrupt delivery (section 5.3's anticipated extension):
     * route physical interrupt @p spi to @p vcpu_idx's dedicated core
     * and have the monitor inject @p virq there without any VM exit.
     * Routes follow the vCPU across rebinds.
     */
    void mapDirectIrq(hw::IntId spi, hw::IntId virq, int vcpu_idx);

    /** Virtual interrupts delivered directly by the monitor (stat). */
    std::uint64_t directInjections() const
    {
        return directInjections_.value();
    }

    /** Register this runner's stats under "gapped.<vm>." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

    /**
     * Host-initiated suspend (section 7 lists it among the VM
     * lifecycle operations core gapping keeps, unlike Core Slicing):
     * every vCPU is forced out of guest execution and its run loop is
     * parked. The cores stay dedicated; guest state stays in place.
     */
    sim::Proc<void> suspend();

    /**
     * suspend() with a bounded wait per vCPU: if a run loop fails to
     * park within @p deadline (a hung monitor never publishes the
     * exit), every park is rolled back and false is returned — the VM
     * keeps running and the caller escalates (terminate()). Used by
     * the migration controller, which must never wedge on a fault.
     */
    sim::Proc<bool> trySuspend(sim::Tick deadline);

    /** Resume a suspended VM: run loops repost their run calls. */
    void resume();

    bool suspended() const { return suspended_; }

    const GappedVmConfig& config() const { return cfg_; }

    /** Rebind retries after a rate-limit refusal (satellite: refused
     * rebinds are backed off and retried, not dropped). */
    std::uint64_t rebindRetries() const { return rebindRetries_.value(); }

    /** Monitor-side run-to-run latency (exit to next run call). */
    sim::LatencyStat& runToRun() { return runToRun_; }

    /** Host-side async run-call round trip (post to response taken). */
    sim::LatencyStat& runCallRtt() { return runCallRtt_; }

    /** Response visible to vCPU thread woken (the wake-up thread's
     * contribution to the serving-path tail). */
    sim::LatencyStat& wakeLatency() { return wakeLatency_; }

    /** @{ Adaptive-spin outcome counts (wakeSpinMax > 0 only). */
    std::uint64_t wakeSpinHits() const { return wakeSpinHits_.value(); }
    std::uint64_t wakeSpinSleeps() const
    {
        return wakeSpinSleeps_.value();
    }
    /** @} */

    /** Hung monitor loops reclaimed by terminate(). */
    std::uint64_t hangReclaims() const { return hangReclaims_.value(); }

    /** Cores lost to double hotplug failures (quarantined). */
    std::uint64_t coresLost() const { return coresLost_.value(); }

    /** Skipped scrubs caught and redone by verifyScrubs audits. */
    std::uint64_t scrubRepairs() const { return scrubRepairs_.value(); }

    /** @{ Recovery policy (effective only with faults armed). */
    /** Wake-up thread watchdog sweep period (lost-doorbell rescue). */
    static constexpr sim::Tick watchdogPeriod = 250 * sim::usec;
    /** terminate() wait per vCPU before declaring the monitor hung. */
    static constexpr sim::Tick parkDeadline = 3 * sim::msec;
    /** Rate-limited rebinds are retried at most this many times. */
    static constexpr int maxRebindRetries = 3;
    /** @} */

  private:
    /** Drives migrations through this runner's internals (park /
     * monitor-retire / respawn); see core/migration.hh. */
    friend class MigrationController;
    struct Park {
        bool requested = false;
        bool parked = false;
        sim::Notify parkedNotify;
        sim::Gate resume;
    };

    sim::Proc<void> monitorCoreLoop(int idx, sim::CoreId core,
                                    std::uint64_t gen);
    sim::Proc<void> vcpuThreadBody(int idx);
    sim::Proc<void> wakeupThreadBody();

    /** Online a reclaimed core, retrying once; false = core lost. */
    sim::Proc<bool> onlineWithRetry(sim::CoreId core);

    /** Release planner reservations exactly once (lost cores stay). */
    void releasePlannerReservations();

    bool isLostCore(sim::CoreId c) const;

    vmm::KvmVm& kvm_;
    rmm::Rmm& rmm_;
    int realm_;
    ExitDoorbell& doorbell_;
    GappedVmConfig cfg_;
    sim::Notify monitorWork_;
    SyncRpcQueue syncRpc_;
    SyncRpcTransport transport_;
    std::vector<std::unique_ptr<RunSlot>> slots_;
    std::vector<host::Thread*> vcpuThreads_;
    host::Thread* wakeupThread_ = nullptr;
    sim::Notify wakeupNotify_;
    bool doorbellPending_ = false;
    std::uint64_t doorbellSub_ = 0;
    std::vector<sim::Process*> monitorProcs_;
    std::vector<std::uint64_t> monGen_;
    std::vector<std::unique_ptr<Park>> parks_;
    bool stopMonitors_ = false;
    bool started_ = false;
    sim::CoreId doorbellTarget_ = 0;
    sim::LatencyStat runToRun_;
    sim::LatencyStat runCallRtt_;
    sim::LatencyStat wakeLatency_;
    sim::Counter wakeSpinHits_;
    sim::Counter wakeSpinSleeps_;
    /** Current adaptive spin budget (0 until first doorbell wait). */
    sim::Tick wakeSpinBudget_ = 0;
    /** spi -> (vcpu index, virq) for direct delivery. */
    std::map<hw::IntId, std::pair<int, hw::IntId>> directIrqs_;
    sim::Counter directInjections_;
    sim::StatGroup statGroup_;
    bool suspended_ = false;
    /** A hung monitor loop blocks here forever (fault injection). */
    sim::Notify hangNotify_;
    /** Armed watchdog timer of the wake-up thread (see destructor). */
    sim::EventId watchdogEvent_ = sim::invalidEventId;
    /** A rering went out; the next delivery confirms the recovery. */
    bool reringOutstanding_ = false;
    bool plannerReleased_ = false;
    std::vector<sim::CoreId> lostCores_;
    sim::Counter hangReclaims_;
    sim::Counter coresLost_;
    sim::Counter hotplugRetries_;
    sim::Counter rebindRetries_;
    /** Skipped scrubs caught and re-flushed (verifyScrubs). */
    sim::Counter scrubRepairs_;
};

} // namespace cg::core

#endif // CG_CORE_GAPPED_VM_HH
