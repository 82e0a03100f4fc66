#include "vmm/kvm.hh"

#include "sim/simulation.hh"

namespace cg::vmm {

using guest::VCpu;
using rmm::ExitInfo;
using rmm::ExitReason;
using sim::Compute;

/** Guest-run strategy for shared-core CVMs: consume vCPU-thread CPU. */
static Proc<ExitInfo> sharedCvmGuestRun(host::Kernel& k,
                                        rmm::GuestContext& g);

/** Busy or Timeout: the call did not run, so it may be re-issued. */
static bool
transientRmi(rmm::RmiStatus s)
{
    return s == rmm::RmiStatus::Busy || s == rmm::RmiStatus::Timeout;
}

KvmVm::KvmVm(host::Kernel& kernel, guest::Vm& vm, KickBroker& kicks,
             KvmConfig cfg)
    : kernel_(kernel),
      vm_(vm),
      kicks_(kicks),
      cfg_(cfg),
      injQueue_(static_cast<size_t>(vm.numVcpus())),
      mmioResp_(static_cast<size_t>(vm.numVcpus()))
{}

KvmVm::~KvmVm()
{
    stop();
}

void
KvmVm::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "kvm." + vm_.name());
    statGroup_.add("exits", stats_.exits);
    statGroup_.add("irqRelatedExits", stats_.irqRelatedExits);
    statGroup_.add("mmioExits", stats_.mmioExits);
    statGroup_.add("wfiExits", stats_.wfiExits);
    statGroup_.add("pageFaultExits", stats_.pageFaultExits);
    statGroup_.add("injections", stats_.injections);
    statGroup_.add("rmiRetries", stats_.rmiRetries);
    statGroup_.add("rmiGiveUps", stats_.rmiGiveUps);
    statGroup_.add("runToRun", stats_.runToRun);
}

void
KvmVm::stop()
{
    for (host::Thread* t : threads_) {
        if (t && !t->done())
            t->process().kill();
    }
}

Tick
KvmVm::cost(Tick nominal)
{
    return kernel_.machine().cost(nominal);
}

void
KvmVm::attachRealm(rmm::Rmm& rmm, int realm_id, RmiTransport* transport)
{
    rmm_ = &rmm;
    realmId_ = realm_id;
    transport_ = transport;
    if (!transport_) {
        // Baseline CCA: RMI calls are same-core SMCs.
        ownedTransport_ =
            std::make_unique<LocalSmcTransport>(kernel_.machine());
        transport_ = ownedTransport_.get();
    }
}

void
KvmVm::setKickOverride(std::function<void(int)> fn)
{
    kickOverride_ = std::move(fn);
}

Proc<rmm::RmiStatus>
LocalSmcTransport::call(std::function<rmm::RmiStatus()> op)
{
    const hw::Costs& costs = machine_.costs();
    // SMC to EL3, world switch into realm, mitigation flush on each
    // boundary crossing, and the handler itself.
    co_await Compute{machine_.cost(costs.smcRoundTrip) +
                     2 * machine_.cost(costs.worldSwitchHalf) +
                     2 * machine_.cost(costs.mitigationFlush) +
                     machine_.cost(costs.rmiShortCall)};
    co_return op();
}

void
KvmVm::mapMmio(MmioRange range)
{
    if (range.size == 0)
        sim::fatal("empty MMIO range");
    mmio_.push_back(std::move(range));
}

MmioRange*
KvmVm::findMmio(std::uint64_t addr)
{
    for (MmioRange& r : mmio_) {
        if (addr >= r.base && addr < r.base + r.size)
            return &r;
    }
    return nullptr;
}

void
KvmVm::queueInjection(int vcpu, hw::IntId virq)
{
    VCpu& v = vm_.vcpu(vcpu);
    stats_.injections.inc();
    if (cfg_.mode == VmMode::SharedCore && !v.entered()) {
        // Normal VM: the vGIC writes the list register directly; the
        // interrupt is delivered at the next entry.
        v.injectVirq(virq);
        return;
    }
    // Defer to the next entry's argument list; kick if in guest.
    injQueue_[static_cast<size_t>(vcpu)].push_back(virq);
    if (kickOverride_) {
        kickOverride_(vcpu);
        return;
    }
    if (v.entered())
        kicks_.kick(v);
    else
        v.runnerNotify().notifyAll();
}

std::vector<hw::IntId>
KvmVm::drainInjections(int vcpu)
{
    auto& q = injQueue_[static_cast<size_t>(vcpu)];
    std::vector<hw::IntId> out(q.begin(), q.end());
    q.clear();
    return out;
}

std::optional<std::uint64_t>
KvmVm::takeMmioResponse(int vcpu)
{
    auto& slot = mmioResp_[static_cast<size_t>(vcpu)];
    auto out = slot;
    slot.reset();
    return out;
}

Proc<void>
KvmVm::waitRunnable(int vcpu)
{
    VCpu& v = vm_.vcpu(vcpu);
    while (injQueue_[static_cast<size_t>(vcpu)].empty() &&
           !v.hasPendingEvent() && v.listRegs().pendingIds().empty() &&
           !v.hasRunnableGuestWork()) {
        co_await v.runnerNotify().wait();
    }
}

void
KvmVm::start()
{
    if (cfg_.mode == VmMode::SharedCoreCvm && !rmm_)
        sim::fatal("SharedCoreCvm VM '%s' has no realm attached",
                   vm_.name().c_str());
    aliveVcpus_ = vm_.numVcpus();
    for (int i = 0; i < vm_.numVcpus(); ++i) {
        VCpu& v = vm_.vcpu(i);
        v.setTickPeriod(vm_.config().tickPeriod);
        Proc<void> body = cfg_.mode == VmMode::SharedCore
                              ? vcpuThreadShared(i)
                              : vcpuThreadSharedCvm(i);
        host::Thread& t = kernel_.createThread(
            sim::strFormat("%s/vcpu%d-thread", vm_.name().c_str(), i),
            std::move(body), cfg_.vcpuClass, cfg_.vcpuAffinity);
        t.footprint = cfg_.vcpuThreadFootprint;
        threads_.push_back(&t);
    }
}

void
KvmVm::onVcpuShutdown()
{
    if (--aliveVcpus_ == 0)
        shutdownGate_.open();
}

// ----------------------------------------------------- exit-side policy

Proc<void>
KvmVm::applyExit(int idx, ExitInfo e)
{
    VCpu& v = vm_.vcpu(idx);
    stats_.exits.inc();
    if (e.interruptRelated())
        stats_.irqRelatedExits.inc();
    co_await Compute{cost(kernel_.machine().costs().kvmExitDispatch)};
    switch (e.reason) {
      case ExitReason::TimerIrq:
        // KVM's arch timer handler forwards the virtual timer IRQ.
        injQueue_[static_cast<size_t>(idx)].push_back(hw::vtimerPpi);
        break;
      case ExitReason::TimerWrite:
        break; // emulate CNTV write: dispatch cost only
      case ExitReason::SgiWrite:
        // vGIC: route the virtual IPI to the target vCPU.
        if (e.target >= 0 && e.target < vm_.numVcpus())
            queueInjection(e.target, hw::sgiBase + 1);
        break;
      case ExitReason::Wfi:
        stats_.wfiExits.inc();
        break; // the run loop blocks via waitRunnable()
      case ExitReason::Mmio:
        co_await handleMmio(idx, e);
        break;
      case ExitReason::PageFault:
        stats_.pageFaultExits.inc();
        if (cfg_.mode == VmMode::SharedCoreCvm || rmm_)
            co_await cvmMapPage(e.addr);
        else
            co_await Compute{cost(2500 * sim::nsec)};
        break;
      case ExitReason::HostKick:
      case ExitReason::Hypercall:
      case ExitReason::Shutdown:
      case ExitReason::None:
        break;
    }
    // Normal VMs install deferred injections straight into the vGIC.
    if (cfg_.mode == VmMode::SharedCore) {
        for (hw::IntId id : drainInjections(idx))
            v.injectVirq(id);
    }
}

Proc<void>
KvmVm::handleMmio(int idx, ExitInfo e)
{
    stats_.mmioExits.inc();
    // kvmtool handles MMIO in userspace: syscall return + decode.
    co_await Compute{cost(1800 * sim::nsec)};
    MmioRange* r = findMmio(e.addr);
    if (!r) {
        sim::warn("%s: MMIO %s at unmapped address 0x%llx",
                  vm_.name().c_str(), e.isWrite ? "write" : "read",
                  static_cast<unsigned long long>(e.addr));
        if (!e.isWrite)
            mmioResp_[static_cast<size_t>(idx)] = 0;
        co_return;
    }
    if (e.isWrite) {
        if (r->onWrite)
            r->onWrite(e);
    } else {
        const std::uint64_t val = r->onRead ? r->onRead(e.addr, e.len)
                                            : 0;
        mmioResp_[static_cast<size_t>(idx)] = val;
    }
}

Proc<rmm::RmiStatus>
KvmVm::rmiCall(std::function<rmm::RmiStatus()> op)
{
    sim::Simulation& sim = kernel_.sim();
    Tick backoff = rmiRetryDelay;
    bool injected = false;
    for (int attempt = 0;; ++attempt) {
        rmm::RmiStatus s;
        if (sim.faults().armed() &&
            sim.faults().query(sim::FaultSite::RmiTransientError)) {
            // The call reached the monitor but bounced off a transient
            // resource shortage: a short round trip, no effect.
            sim.faults().noteDetected(
                sim::FaultSite::RmiTransientError);
            injected = true;
            co_await Compute{
                cost(kernel_.machine().costs().pollReaction)};
            s = rmm::RmiStatus::Busy;
        } else {
            s = co_await transport_->call(op);
        }
        if (!transientRmi(s)) {
            if (injected && s == rmm::RmiStatus::Success) {
                sim.faults().noteRecovered(
                    sim::FaultSite::RmiTransientError);
            }
            co_return s;
        }
        if (attempt >= maxRmiRetries) {
            stats_.rmiGiveUps.inc();
            co_return s;
        }
        stats_.rmiRetries.inc();
        co_await sim::Delay{backoff};
        backoff *= 2;
    }
}

Proc<void>
KvmVm::cvmMapPage(std::uint64_t ipa)
{
    CG_ASSERT(rmm_ && transport_, "CVM page fault without a realm");
    // Walk the RTT down to the leaf: delegate a fresh granule for each
    // missing level, then for the page itself. On Arm CCA every step
    // is an RMI through the transport; TDX-style management edits the
    // untrusted levels host-side without monitor calls (section 6.1),
    // so only the leaf acceptance pays the transport.
    const std::uint64_t page = ipa & ~(rmm::granuleSize - 1);
    rmm::Rmm* rmm = rmm_;
    const int realm = realmId_;
    for (;;) {
        // Looked up again after every call: teardown may have
        // destroyed the realm while one was in flight.
        const rmm::Realm* r = rmm->realm(realm);
        if (!r || r->rtt.translate(page).has_value())
            co_return; // gone, or already mapped (benign refault)
        const bool leaf = r->rtt.tablesComplete(page);
        const int level = r->rtt.walkLevel(page);
        if (cfg_.tdxStylePageTables && !leaf) {
            co_await Compute{cost(400 * sim::nsec)};
            const rmm::RmiStatus s = rmm->rttCreate(
                realm, page, level, delegateGranule(*rmm, kernel_));
            CG_ASSERT(s == rmm::RmiStatus::Success, "rttCreate: %s",
                      rmm::rmiStatusName(s));
            continue;
        }
        const rmm::PhysAddr g = kernel_.allocPage();
        rmm::RmiStatus s = co_await rmiCall(
            [rmm, g] { return rmm->granuleDelegate(g); });
        if (s != rmm::RmiStatus::Success) {
            // The allocator never hands out a page the monitor tracks,
            // so only a spent retry budget lands here.
            CG_ASSERT(transientRmi(s), "%s: granuleDelegate: %s",
                      vm_.name().c_str(), rmm::rmiStatusName(s));
            kernel_.freePage(g);
            sim::warn("%s: granuleDelegate gave up: %s (page fault "
                      "unserviced; the guest refaults)",
                      vm_.name().c_str(), rmm::rmiStatusName(s));
            co_return;
        }
        s = co_await rmiCall([rmm, realm, page, level, g, leaf] {
            return leaf ? rmm->dataCreateUnknown(realm, page, g)
                        : rmm->rttCreate(realm, page, level, g);
        });
        if (s == rmm::RmiStatus::Success) {
            if (leaf)
                co_return;
            continue;
        }
        // The granule was never assigned: hand it back to the host.
        undelegateGranule(*rmm, kernel_, g);
        const char* call = leaf ? "dataCreateUnknown" : "rttCreate";
        if (transientRmi(s)) {
            sim::warn("%s: %s gave up: %s (page fault unserviced; the "
                      "guest refaults)",
                      vm_.name().c_str(), call, rmm::rmiStatusName(s));
            co_return;
        }
        // Lost a benign race: another vCPU's fault handler created
        // this level, or mapped this page, between our walk and the
        // monitor running the call (or the realm is gone). Re-walk.
        CG_ASSERT(s == rmm::RmiStatus::BadState, "%s: %s", call,
                  rmm::rmiStatusName(s));
    }
}

// -------------------------------------------------------- vCPU threads

Proc<void>
KvmVm::vcpuThreadShared(int idx)
{
    VCpu& v = vm_.vcpu(idx);
    Tick last_exit = 0;
    for (;;) {
        for (hw::IntId id : drainInjections(idx))
            v.injectVirq(id);
        if (last_exit != 0)
            stats_.runToRun.sample(kernel_.sim().now() - last_exit);
        co_await kernel_.runGuest(v);
        ExitInfo e = v.takeExit();
        last_exit = kernel_.sim().now();
        co_await applyExit(idx, e);
        if (e.reason == ExitReason::Shutdown)
            break;
        if (e.reason == ExitReason::Wfi) {
            co_await waitRunnable(idx);
            co_await Compute{
                cost(kernel_.machine().costs().threadBlockUnblock)};
        }
    }
    onVcpuShutdown();
}

Proc<void>
KvmVm::vcpuThreadSharedCvm(int idx)
{
    hw::Machine& m = kernel_.machine();
    const hw::Costs& costs = m.costs();
    host::Kernel& k = kernel_;
    Tick last_exit = 0;
    // Guest execution must consume this thread's CPU time, so the RMM
    // runs the guest through the scheduler-coupled strategy.
    rmm::GuestRunFn run_fn = [&k](rmm::GuestContext& g,
                                  sim::CoreId) -> Proc<ExitInfo> {
        return sharedCvmGuestRun(k, g);
    };
    for (;;) {
        rmm::RecEnterArgs args;
        args.injectVirqs = drainInjections(idx);
        args.mmioResponse = takeMmioResponse(idx);
        if (last_exit != 0)
            stats_.runToRun.sample(kernel_.sim().now() - last_exit);
        // SMC into the RMM (the world switch + mitigation flush is
        // charged by the kernel when the guest goes on/off the core).
        const sim::CoreId c0 = threads_[static_cast<size_t>(idx)]
                                   ->lastCore();
        co_await Compute{cost(costs.smcRoundTrip) / 2};
        rmm::RecRunResult res = co_await rmm_->recEnter(
            realmId_, idx, std::move(args), c0, run_fn);
        co_await Compute{cost(costs.smcRoundTrip) / 2};
        last_exit = kernel_.sim().now();
        if (res.status != rmm::RmiStatus::Success) {
            sim::warn("%s/vcpu%d: REC enter failed: %s",
                      vm_.name().c_str(), idx,
                      rmm::rmiStatusName(res.status));
            break;
        }
        co_await applyExit(idx, res.exit);
        if (res.exit.reason == ExitReason::Shutdown)
            break;
        if (res.exit.reason == ExitReason::Wfi)
            co_await waitRunnable(idx);
    }
    onVcpuShutdown();
}

static Proc<ExitInfo>
sharedCvmGuestRun(host::Kernel& k, rmm::GuestContext& g)
{
    auto& v = dynamic_cast<VCpu&>(g);
    co_await k.runGuest(v);
    co_return v.takeExit();
}

// ---------------------------------------------------------- realm setup

static_assert(host::Kernel::pageSize == rmm::granuleSize,
              "the host allocates the monitor's granules as pages");

rmm::PhysAddr
delegateGranule(rmm::Rmm& rmm, host::Kernel& kernel)
{
    const rmm::PhysAddr g = kernel.allocPage();
    const rmm::RmiStatus s = rmm.granuleDelegate(g);
    CG_ASSERT(s == rmm::RmiStatus::Success, "delegate 0x%llx: %s",
              static_cast<unsigned long long>(g),
              rmm::rmiStatusName(s));
    return g;
}

void
undelegateGranule(rmm::Rmm& rmm, host::Kernel& kernel, rmm::PhysAddr g)
{
    const rmm::RmiStatus s = rmm.granuleUndelegate(g);
    CG_ASSERT(s == rmm::RmiStatus::Success, "undelegate 0x%llx: %s",
              static_cast<unsigned long long>(g),
              rmm::rmiStatusName(s));
    kernel.freePage(g);
}

int
createRealmFor(rmm::Rmm& rmm, host::Kernel& kernel, guest::Vm& vm)
{
    const auto granule = [&rmm, &kernel] {
        return delegateGranule(rmm, kernel);
    };

    int realm = -1;
    rmm::RealmParams params;
    params.name = vm.name();
    rmm::RmiStatus s = rmm.realmCreate(granule(), params, realm);
    if (s != rmm::RmiStatus::Success)
        sim::fatal("realmCreate failed: %s", rmm::rmiStatusName(s));

    // Populate the initial (measured) image: boot pages at IPA 0.
    for (int level = 1; level <= rmm::rttLeafLevel; ++level) {
        s = rmm.rttCreate(realm, 0, level, granule());
        CG_ASSERT(s == rmm::RmiStatus::Success, "rttCreate: %s",
                  rmm::rmiStatusName(s));
    }
    for (int page = 0; page < 64; ++page) {
        s = rmm.dataCreate(realm,
                           static_cast<std::uint64_t>(page) *
                               rmm::granuleSize,
                           granule(), 0xb007ull + page);
        CG_ASSERT(s == rmm::RmiStatus::Success, "dataCreate: %s",
                  rmm::rmiStatusName(s));
    }

    for (int i = 0; i < vm.numVcpus(); ++i) {
        int rec = -1;
        s = rmm.recCreate(realm, granule(), rec);
        CG_ASSERT(s == rmm::RmiStatus::Success, "recCreate: %s",
                  rmm::rmiStatusName(s));
        CG_ASSERT(rec == i, "REC index mismatch");
        rmm.setGuestContext(realm, rec, &vm.vcpu(i));
    }

    s = rmm.realmActivate(realm);
    CG_ASSERT(s == rmm::RmiStatus::Success, "realmActivate: %s",
              rmm::rmiStatusName(s));
    vm.setConfidential(true);
    return realm;
}

void
destroyRealm(rmm::Rmm& rmm, host::Kernel& kernel, int realm)
{
    const rmm::Realm* r = rmm.realm(realm);
    CG_ASSERT(r, "destroyRealm: no realm %d", realm);
    // Snapshot first: destroying a REC already releases its granule.
    const auto held = rmm.granules().owned(realm);
    const int recs = static_cast<int>(r->recs.size());
    for (int i = 0; i < recs; ++i)
        rmm.recDestroy(realm, i);
    const rmm::RmiStatus s = rmm.realmDestroy(realm);
    CG_ASSERT(s == rmm::RmiStatus::Success, "realmDestroy(%d): %s",
              realm, rmm::rmiStatusName(s));
    for (const auto& [g, state] : held)
        undelegateGranule(rmm, kernel, g);
}

} // namespace cg::vmm
