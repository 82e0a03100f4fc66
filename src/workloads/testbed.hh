/**
 * @file
 * The experiment testbed: assembles machine, host kernel, RMM,
 * doorbell/kick brokers, fabric and disk, and builds VMs in any of the
 * evaluated configurations. Benchmarks and examples sit on top of this.
 *
 * Core accounting follows section 5.1: an experiment "with N cores"
 * means an N-vCPU VM in the shared baselines, and an (N-1)-vCPU CVM
 * plus one host core when core-gapped — the same number of *physical*
 * cores in all comparisons.
 */

#ifndef CG_WORKLOADS_TESTBED_HH
#define CG_WORKLOADS_TESTBED_HH

#include <memory>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "core/doorbell.hh"
#include "core/gapped_vm.hh"
#include "core/planner.hh"
#include "sim/fault.hh"
#include "vmm/disk.hh"
#include "vmm/kvm.hh"
#include "vmm/netfabric.hh"
#include "vmm/sriov.hh"
#include "vmm/virtio.hh"
#include "vmm/virtio_mq.hh"

namespace cg::workloads {

using sim::Proc;
using sim::Tick;

/** The evaluated system configurations. */
enum class RunMode {
    SharedCore,             ///< non-confidential VM (paper baseline)
    SharedCoreCvm,          ///< baseline CCA confidential VM
    CoreGapped,             ///< the paper's design (async + delegation)
    CoreGappedBusyWait,     ///< fig. 6 ablation: Quarantine-style polling
    CoreGappedNoDelegation, ///< fig. 6 / table 4 ablation
};

const char* runModeName(RunMode m);
bool isGapped(RunMode m);

/**
 * What a run is asked to do besides simulating: observe itself, inject
 * faults, check isolation. The bench harness fills it from argv
 * (bench::runOptions()); the default is a bare run. None of it changes
 * a simulated result except the fault plan.
 */
struct RunOptions {
    /** Dump the stats registry here when the run ends (".json"
     * suffix selects JSON); empty: no dump. */
    std::string statsPath;
    /** Record tracepoints and write them here as Chrome trace_event
     * JSON when the run ends; empty: tracer off. */
    std::string tracePath;
    /** Fault plan to arm (FaultPlan::parse); empty: disarmed. */
    std::vector<sim::FaultSpec> faults;
    /** Seed for the plan's probabilistic triggers, mixed with the
     * testbed seed so every run of a sweep draws its own stream. */
    std::uint64_t faultSeed = 1;
    /** Build and attach an isolation checker. */
    bool check = false;
    /** The checker panics on its first leak edge. */
    bool abortOnLeak = false;
    /** Set to true when the stats or trace file cannot be written;
     * the flag must outlive the testbed. */
    bool* writeFailed = nullptr;
};

/** One VM with its runner and optional devices. */
struct VmInstance {
    std::unique_ptr<guest::Vm> vm;
    std::unique_ptr<vmm::KvmVm> kvm;
    std::unique_ptr<cg::core::GappedVm> gapped; ///< null in shared modes
    std::vector<sim::CoreId> physCores;         ///< all cores accounted
    std::vector<sim::CoreId> guestCores;        ///< dedicated (gapped)
    host::CpuMask hostMask;                     ///< VMM-thread cores
    std::unique_ptr<vmm::VirtioNet> vnet;
    std::unique_ptr<vmm::VirtioBlk> vblk;
    std::unique_ptr<vmm::SriovNic> sriov;
    std::unique_ptr<vmm::MqVirtioNet> mqnet;

    guest::VCpu& vcpu(int i) { return vm->vcpu(i); }
    int numVcpus() const { return vm->numVcpus(); }
};

class Testbed
{
  public:
    struct Config {
        int numCores = 16;
        RunMode mode = RunMode::SharedCore;
        std::uint64_t seed = 0xc0ffee;
        hw::Costs costs{};
        vmm::NetworkFabric::Config fabric{};
        vmm::Disk::Config disk{};
        /** Gapped wake-up thread adaptive spin cap (0 = off; see
         * GappedVmConfig::wakeSpinMax). */
        Tick wakeSpinMax = 0;
        /** Scrub verification (detect-and-repair of scrub-skip
         * injections) in the RMM and every gapped runner; see
         * rmm::RmmConfig::verifyScrubs. Fault-armed soaks turn this
         * on to run leak-free. */
        bool verifyScrubs = false;
        /** Observation, faults and checking for this run. */
        RunOptions run{};
    };

    explicit Testbed(Config cfg);
    ~Testbed();

    sim::Simulation& sim() { return *sim_; }
    hw::Machine& machine() { return *machine_; }
    host::Kernel& kernel() { return *kernel_; }
    rmm::Rmm& rmm() { return *rmm_; }
    vmm::NetworkFabric& fabric() { return *fabric_; }
    vmm::Disk& disk() { return *disk_; }
    RunMode mode() const { return cfg_.mode; }
    const Config& config() const { return cfg_; }

    /** The isolation checker, when run.check armed one (else null). */
    check::IsolationChecker* checker() { return checker_.get(); }

    /**
     * Build a VM occupying @p phys_cores physical cores starting at
     * the next free core (paper accounting: shared modes get
     * phys_cores vCPUs; gapped modes get phys_cores-1 vCPUs plus one
     * host core).
     */
    VmInstance& createVm(const std::string& name, int phys_cores,
                         guest::VmConfig base = {});

    /**
     * Full-control variant: @p guest_cores dedicated cores (gapped) or
     * vCPU affinity (shared) and an explicit host mask for VMM
     * threads; @p num_vcpus vCPUs. Used by fig. 7's many-VMs-one-host-
     * core setup. If @p planner is given (gapped modes), the VM's
     * runner owns releasing its reservations (see GappedVmConfig).
     */
    VmInstance& createVmOn(const std::string& name,
                           std::vector<sim::CoreId> guest_cores,
                           host::CpuMask host_mask, int num_vcpus,
                           guest::VmConfig base = {},
                           cg::core::CorePlanner* planner = nullptr);

    /** @{ Attach devices (before start). */
    void addVirtioNet(VmInstance& v);
    void addVirtioBlk(VmInstance& v);
    /**
     * @p direct enables direct interrupt delivery (gapped modes only):
     * the VF's MSI bypasses the host and the monitor injects it on the
     * dedicated core — the extension section 5.3 anticipates.
     */
    void addSriovNic(VmInstance& v, bool direct = false);

    /** Multi-queue NIC build options (see vmm::MqVirtioNet::Config). */
    struct MqNicOptions {
        int queues = 4;
        /** Emulate on reserved I/O cores with posted doorbells
         * instead of trapped-MMIO VMM threads. */
        bool ipuOffload = false;
        /** Reserved I/O cores to allocate for ipuOffload (taken from
         * the testbed's free cores, one per queue up to this). */
        int ipuCores = 2;
        /** Monitor-injected RX interrupts (gapped VMs only). */
        bool directRx = false;
        int kickBatchLimit = 8;
        sim::Tick eventIdxPublishDelay = 0;
        bool recordTxLog = false;
    };

    void addMqNic(VmInstance& v, MqNicOptions opt);
    void addMqNic(VmInstance& v) { addMqNic(v, MqNicOptions()); }
    /** @} */

    /** Bring every VM up; opens started() when done. */
    Proc<void> startAll();

    /** Convenience: spawn startAll() as a process. */
    void spawnStart();

    /** Open once every VM is running (workloads gate on this). */
    sim::Gate& started() { return started_; }

    /** All VMs' guests have shut down? */
    bool allShutdown() const;

    /** Gapped VMs whose start() rolled back (fault injection). */
    int startFailures() const { return startFailures_; }

    /** Run until everything quiesces or @p limit; @return end time. */
    Tick run(Tick limit = sim::maxTick);

    /**
     * Write run.statsPath/run.tracePath now, while workload objects
     * whose StatGroups detach on destruction are still registered.
     * Idempotent; the destructor calls it as a fallback for benches
     * that never do (covering everything owned by the testbed
     * itself). A failed write sets *run.writeFailed.
     */
    void writeObservability();

    const std::vector<std::unique_ptr<VmInstance>>& vms() const
    {
        return vms_;
    }
    VmInstance& vmAt(std::size_t i) { return *vms_.at(i); }

    /**
     * Drop a VM the churn driver is done with (guest shut down and —
     * for gapped VMs — teardown()/terminate() awaited first, so the
     * cores and planner reservations are already back). A realm still
     * live, such as that of a VM whose start() failed, is destroyed
     * and its granules go back to the host. Invalidates @p v and every
     * reference into it.
     */
    void destroyVm(VmInstance& v);

  private:
    rmm::RmmConfig rmmConfigFor(RunMode m) const;
    vmm::KvmConfig kvmConfigFor(RunMode m, host::CpuMask vcpu_mask) const;

    Config cfg_;
    std::unique_ptr<sim::Simulation> sim_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<check::IsolationChecker> checker_;
    std::unique_ptr<host::Kernel> kernel_;
    std::unique_ptr<vmm::KickBroker> kicks_;
    std::unique_ptr<rmm::Rmm> rmm_;
    std::unique_ptr<cg::core::ExitDoorbell> doorbell_;
    std::unique_ptr<vmm::NetworkFabric> fabric_;
    std::unique_ptr<vmm::Disk> disk_;
    std::vector<std::unique_ptr<VmInstance>> vms_;
    sim::Gate started_;
    int nextCore_ = 0;
    int startFailures_ = 0;
    bool observabilityWritten_ = false;
    int nextDomain_ = sim::firstVmDomain;
    std::uint64_t nextMmioBase_ = 0x0a000000;
    hw::IntId nextIrq_ = 40;
    hw::IntId nextSpi_ = 64;
};

} // namespace cg::workloads

#endif // CG_WORKLOADS_TESTBED_HH
