#include "workloads/testbed.hh"

#include <utility>

#include "sim/simulation.hh"

namespace cg::workloads {

const char*
runModeName(RunMode m)
{
    switch (m) {
      case RunMode::SharedCore:
        return "shared-core";
      case RunMode::SharedCoreCvm:
        return "shared-core-cvm";
      case RunMode::CoreGapped:
        return "core-gapped";
      case RunMode::CoreGappedBusyWait:
        return "core-gapped-busywait";
      case RunMode::CoreGappedNoDelegation:
        return "core-gapped-nodelegation";
    }
    return "?";
}

bool
isGapped(RunMode m)
{
    return m == RunMode::CoreGapped ||
           m == RunMode::CoreGappedBusyWait ||
           m == RunMode::CoreGappedNoDelegation;
}

Testbed::Testbed(Config cfg) : cfg_(std::move(cfg))
{
    sim_ = std::make_unique<sim::Simulation>(cfg_.seed);
    hw::MachineConfig mcfg;
    mcfg.numCores = cfg_.numCores;
    mcfg.costs = cfg_.costs;
    machine_ = std::make_unique<hw::Machine>(*sim_, mcfg);
    kernel_ = std::make_unique<host::Kernel>(*machine_);
    kicks_ = std::make_unique<vmm::KickBroker>(*kernel_);
    rmm_ = std::make_unique<rmm::Rmm>(*machine_,
                                      rmmConfigFor(cfg_.mode));
    doorbell_ = std::make_unique<cg::core::ExitDoorbell>(*kernel_);
    fabric_ = std::make_unique<vmm::NetworkFabric>(*sim_, cfg_.fabric);
    disk_ = std::make_unique<vmm::Disk>(*sim_, cfg_.disk);

    kernel_->registerStats(sim_->stats());
    rmm_->registerStats(sim_->stats());
    machine_->gic().registerStats(sim_->stats());
    doorbell_->registerStats(sim_->stats());

    // A run with an output path is observed: fault and checker stats
    // join its dump only then, so unobserved runs register nothing
    // beyond the components' own stats.
    const RunOptions& opts = cfg_.run;
    const bool observed =
        !opts.statsPath.empty() || !opts.tracePath.empty();
    if (!opts.tracePath.empty())
        sim_->tracer().enable();

    // Each testbed mixes the plan seed with its own simulation seed, so
    // the runs of a sweep draw independent streams and the sweep as a
    // whole stays deterministic (I9).
    if (!opts.faults.empty()) {
        sim_->faults().arm(
            opts.faultSeed ^ (cfg_.seed * 0x9e3779b97f4a7c15ull),
            opts.faults);
        if (observed)
            sim_->faults().registerStats(sim_->stats());
    }

    // The checker is pure observation, so arming it cannot change any
    // simulated result.
    if (opts.check) {
        check::IsolationChecker::Config ccfg;
        ccfg.abortOnLeak = opts.abortOnLeak;
        checker_ = std::make_unique<check::IsolationChecker>(
            sim_->queue(), ccfg);
        machine_->attachChecker(checker_.get());
        checker_->setTracer(&sim_->tracer());
        if (observed)
            checker_->registerStats(sim_->stats());
    }
}

void
Testbed::writeObservability()
{
    if (observabilityWritten_)
        return;
    observabilityWritten_ = true;
    const RunOptions& opts = cfg_.run;
    bool ok = true;
    if (!opts.statsPath.empty())
        ok = sim_->stats().writeFile(opts.statsPath) && ok;
    if (!opts.tracePath.empty())
        ok = sim_->tracer().writeFile(opts.tracePath) && ok;
    if (!ok && opts.writeFailed)
        *opts.writeFailed = true;
}

Testbed::~Testbed()
{
    // Write observability outputs first, while every component (and
    // thus every registered stat) is still alive. Benches whose
    // workloads register stats of their own call writeObservability()
    // before those workloads die; this is the fallback.
    writeObservability();
    // VMs reference the kernel/RMM: drop them first, in reverse order.
    while (!vms_.empty())
        vms_.pop_back();
}

rmm::RmmConfig
Testbed::rmmConfigFor(RunMode m) const
{
    rmm::RmmConfig r;
    switch (m) {
      case RunMode::SharedCore:
      case RunMode::SharedCoreCvm:
        break;
      case RunMode::CoreGapped:
        r.coreGapped = true;
        r.delegateInterrupts = true;
        r.localWfi = true;
        break;
      case RunMode::CoreGappedBusyWait:
      case RunMode::CoreGappedNoDelegation:
        // The fig. 6 ablations: the paper's "busy waiting" lines use
        // Quarantine-style polling with delegation disabled.
        r.coreGapped = true;
        r.delegateInterrupts = false;
        r.localWfi = true;
        break;
    }
    r.verifyScrubs = cfg_.verifyScrubs;
    return r;
}

vmm::KvmConfig
Testbed::kvmConfigFor(RunMode m, host::CpuMask vcpu_mask) const
{
    vmm::KvmConfig k;
    k.mode = m == RunMode::SharedCore ? vmm::VmMode::SharedCore
                                      : vmm::VmMode::SharedCoreCvm;
    k.vcpuAffinity = vcpu_mask;
    return k;
}

VmInstance&
Testbed::createVm(const std::string& name, int phys_cores,
                  guest::VmConfig base)
{
    if (phys_cores < 1 || (isGapped(cfg_.mode) && phys_cores < 2))
        sim::fatal("VM '%s': need >= %d physical cores", name.c_str(),
                   isGapped(cfg_.mode) ? 2 : 1);
    if (nextCore_ + phys_cores > machine_->numCores())
        sim::fatal("out of physical cores for VM '%s'", name.c_str());
    std::vector<sim::CoreId> cores;
    for (int i = 0; i < phys_cores; ++i)
        cores.push_back(nextCore_++);

    if (isGapped(cfg_.mode)) {
        // First core hosts the VMM threads; the rest are dedicated.
        host::CpuMask host_mask = host::CpuMask::single(cores[0]);
        std::vector<sim::CoreId> guests(cores.begin() + 1, cores.end());
        VmInstance& v = createVmOn(name, guests, host_mask,
                                   phys_cores - 1, base);
        v.physCores = cores;
        return v;
    }
    host::CpuMask mask;
    for (sim::CoreId c : cores)
        mask.set(c);
    VmInstance& v = createVmOn(name, cores, mask, phys_cores, base);
    v.physCores = cores;
    return v;
}

VmInstance&
Testbed::createVmOn(const std::string& name,
                    std::vector<sim::CoreId> guest_cores,
                    host::CpuMask host_mask, int num_vcpus,
                    guest::VmConfig base, cg::core::CorePlanner* planner)
{
    auto inst = std::make_unique<VmInstance>();
    base.name = name;
    base.numVcpus = num_vcpus;
    inst->vm = std::make_unique<guest::Vm>(*machine_, base,
                                           nextDomain_++);
    inst->guestCores = guest_cores;
    inst->hostMask = host_mask;
    inst->physCores = guest_cores;

    const bool gapped = isGapped(cfg_.mode);
    host::CpuMask vcpu_mask = host_mask;
    if (!gapped) {
        vcpu_mask = host::CpuMask{};
        for (sim::CoreId c : guest_cores)
            vcpu_mask.set(c);
    }
    inst->kvm = std::make_unique<vmm::KvmVm>(
        *kernel_, *inst->vm, *kicks_,
        kvmConfigFor(cfg_.mode, vcpu_mask));

    if (cfg_.mode != RunMode::SharedCore) {
        const int realm = vmm::createRealmFor(*rmm_, *kernel_, *inst->vm);
        inst->kvm->attachRealm(*rmm_, realm);
        CG_ASSERT(rmm_->realm(realm)->domain == inst->vm->domain(),
                  "domain bookkeeping out of sync for '%s'",
                  name.c_str());
    }
    if (gapped) {
        cg::core::GappedVmConfig gcfg;
        gcfg.guestCores = guest_cores;
        gcfg.hostCores = host_mask;
        gcfg.busyWaitRun = cfg_.mode == RunMode::CoreGappedBusyWait;
        gcfg.wakeSpinMax = cfg_.wakeSpinMax;
        gcfg.planner = planner;
        gcfg.verifyScrubs = cfg_.verifyScrubs;
        inst->gapped = std::make_unique<cg::core::GappedVm>(
            *inst->kvm, *doorbell_, gcfg);
    }
    inst->vm->registerStats(sim_->stats());
    inst->kvm->registerStats(sim_->stats());
    if (inst->gapped)
        inst->gapped->registerStats(sim_->stats());
    vms_.push_back(std::move(inst));
    return *vms_.back();
}

void
Testbed::addVirtioNet(VmInstance& v)
{
    vmm::VirtioNet::Config c;
    c.mmioBase = nextMmioBase_;
    nextMmioBase_ += 0x1000;
    c.irq = nextIrq_++;
    c.ioThreadAffinity = v.hostMask;
    v.vnet = std::make_unique<vmm::VirtioNet>(*v.kvm, *fabric_, c);
}

void
Testbed::addVirtioBlk(VmInstance& v)
{
    vmm::VirtioBlk::Config c;
    c.mmioBase = nextMmioBase_;
    nextMmioBase_ += 0x1000;
    c.irq = nextIrq_++;
    c.ioThreadAffinity = v.hostMask;
    v.vblk = std::make_unique<vmm::VirtioBlk>(*v.kvm, *disk_, c);
}

void
Testbed::addMqNic(VmInstance& v, MqNicOptions opt)
{
    vmm::MqVirtioNet::Config c;
    c.numQueues = opt.queues;
    c.mmioBase = nextMmioBase_;
    nextMmioBase_ += 0x1000;
    c.irqBase = nextIrq_;
    nextIrq_ += opt.queues;
    c.msiSpiBase = nextSpi_;
    nextSpi_ += opt.queues;
    c.backend = opt.ipuOffload ? vmm::MqVirtioNet::Backend::IpuOffload
                               : vmm::MqVirtioNet::Backend::Trapped;
    c.directRx = opt.directRx;
    c.kickBatchLimit = opt.kickBatchLimit;
    c.eventIdxPublishDelay = opt.eventIdxPublishDelay;
    c.recordTxLog = opt.recordTxLog;
    c.ioThreadAffinity = v.hostMask;
    if (opt.directRx && !v.gapped)
        sim::fatal("direct interrupt delivery needs a gapped VM");
    if (opt.ipuOffload) {
        // Reserve the IPU's I/O cores from the testbed's free pool:
        // they belong to the device, not to any VM's core budget.
        const int n = std::min(opt.ipuCores, opt.queues);
        if (nextCore_ + n > machine_->numCores()) {
            sim::fatal("testbed: out of cores for the IPU (%d + %d > "
                       "%d)", nextCore_, n, machine_->numCores());
        }
        for (int i = 0; i < n; ++i)
            c.ipuCores.push_back(nextCore_++);
    } else {
        // Hosted MSI path lands on one of this VM's host cores.
        for (sim::CoreId i = 0; i < machine_->numCores(); ++i) {
            if (v.hostMask.test(i)) {
                c.msiTargetCore = i;
                break;
            }
        }
    }
    v.mqnet = std::make_unique<vmm::MqVirtioNet>(*v.kvm, *fabric_, c);
    v.mqnet->registerStats(sim_->stats());
    if (opt.directRx) {
        for (int q = 0; q < opt.queues; ++q) {
            v.gapped->mapDirectIrq(c.msiSpiBase + q, c.irqBase + q,
                                   q % v.numVcpus());
        }
    }
}

void
Testbed::addSriovNic(VmInstance& v, bool direct)
{
    vmm::SriovNic::Config c;
    c.msiSpi = nextSpi_++;
    c.virq = nextIrq_++;
    if (direct && !v.gapped)
        sim::fatal("direct interrupt delivery needs a gapped VM");
    c.directToGuest = direct;
    // The VF's MSI lands on a VMM host core for this VM.
    for (sim::CoreId i = 0; i < machine_->numCores(); ++i) {
        if (v.hostMask.test(i)) {
            c.msiTargetCore = i;
            break;
        }
    }
    v.sriov = std::make_unique<vmm::SriovNic>(*v.kvm, *fabric_, c);
    if (direct)
        v.gapped->mapDirectIrq(c.msiSpi, c.virq, c.irqVcpu);
}

Proc<void>
Testbed::startAll()
{
    for (auto& v : vms_) {
        if (v->gapped) {
            if (!co_await v->gapped->start()) {
                ++startFailures_;
                sim::warn("testbed: VM '%s' failed to start (cores "
                          "handed back)", v->vm->name().c_str());
            }
        } else {
            v->kvm->start();
        }
    }
    started_.open();
}

void
Testbed::spawnStart()
{
    sim_->spawn("testbed-start", startAll());
}

void
Testbed::destroyVm(VmInstance& v)
{
    for (auto it = vms_.begin(); it != vms_.end(); ++it) {
        if (it->get() == &v) {
            // A realm teardown() has not destroyed, such as one whose
            // start() rolled back, goes before its guest contexts do.
            const int realm = v.kvm->realmId();
            if (v.kvm->rmm() && rmm_->realm(realm))
                vmm::destroyRealm(*rmm_, *kernel_, realm);
            vms_.erase(it);
            return;
        }
    }
    sim::fatal("destroyVm: VM is not in this testbed");
}

bool
Testbed::allShutdown() const
{
    for (const auto& v : vms_) {
        if (!v->kvm->shutdownGate().isOpen())
            return false;
    }
    return true;
}

Tick
Testbed::run(Tick limit)
{
    return sim_->run(limit);
}

} // namespace cg::workloads
