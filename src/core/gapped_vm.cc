#include "core/gapped_vm.hh"

#include <algorithm>

#include "core/planner.hh"
#include "core/scrub.hh"
#include "sim/simulation.hh"

namespace cg::core {

using guest::VCpu;
using rmm::ExitReason;
using sim::Compute;
using sim::Tick;

namespace {

/** Any SGI works as a kick: the monitor exits the REC on all of them. */
constexpr hw::IntId kickSgi = 15;

} // namespace

GappedVm::GappedVm(vmm::KvmVm& kvm, ExitDoorbell& doorbell,
                   GappedVmConfig cfg)
    : kvm_(kvm),
      rmm_(*kvm.rmm()),
      realm_(kvm.realmId()),
      doorbell_(doorbell),
      cfg_(std::move(cfg)),
      syncRpc_(kvm.kernel().machine(), monitorWork_),
      transport_(syncRpc_)
{
    if (!kvm_.rmm() || realm_ < 0)
        sim::fatal("GappedVm needs a realm-attached KvmVm");
    const int n = kvm_.guestVm().numVcpus();
    if (static_cast<int>(cfg_.guestCores.size()) != n) {
        sim::fatal("GappedVm: %d dedicated cores for %d vCPUs",
                   static_cast<int>(cfg_.guestCores.size()), n);
    }
    if (cfg_.hostCores.empty())
        sim::fatal("GappedVm needs at least one host core");
    syncRpc_.setTraceDomain(kvm_.guestVm().domain());
    for (int i = 0; i < n; ++i) {
        slots_.push_back(std::make_unique<RunSlot>(
            kvm_.kernel().machine(), monitorWork_));
        parks_.push_back(std::make_unique<Park>());
        monGen_.push_back(0);
    }
    monitorProcs_.resize(static_cast<size_t>(n), nullptr);
    // Short RMI calls now travel by cross-core RPC.
    kvm_.attachRealm(rmm_, realm_, &transport_);
    // Host-initiated exits target the REC's dedicated core directly.
    kvm_.setKickOverride([this](int idx) {
        kvm_.kernel().machine().gic().sendSgi(
            cfg_.guestCores[static_cast<size_t>(idx)], kickSgi);
    });
    for (sim::CoreId c = 0; c < 64; ++c) {
        if (cfg_.hostCores.test(c)) {
            doorbellTarget_ = c;
            break;
        }
    }
}

GappedVm::~GappedVm()
{
    kvm_.kernel().machine().sim().queue().cancel(watchdogEvent_);
    stopMonitors_ = true;
    monitorWork_.notifyAll();
    if (doorbellSub_ != 0)
        doorbell_.unsubscribe(doorbellTarget_, doorbellSub_);
    if (wakeupThread_ && !wakeupThread_->done())
        wakeupThread_->process().kill();
    for (host::Thread* t : vcpuThreads_) {
        if (t && !t->done())
            t->process().kill();
    }
    for (sim::Process* p : monitorProcs_) {
        if (p)
            p->kill();
    }
}

void
GappedVm::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "gapped." + kvm_.guestVm().name());
    statGroup_.add("runToRun", runToRun_);
    statGroup_.add("runCallRtt", runCallRtt_);
    statGroup_.add("wakeLatency", wakeLatency_);
    statGroup_.add("wakeSpinHits", wakeSpinHits_);
    statGroup_.add("wakeSpinSleeps", wakeSpinSleeps_);
    statGroup_.add("directInjections", directInjections_);
    statGroup_.add("syncRpcServed", syncRpc_.servedStat());
    statGroup_.add("rpcTimeouts", syncRpc_.timeoutStat());
    statGroup_.add("rpcRepokes", syncRpc_.repokeStat());
    statGroup_.add("hangReclaims", hangReclaims_);
    statGroup_.add("coresLost", coresLost_);
    statGroup_.add("hotplugRetries", hotplugRetries_);
    statGroup_.add("rebindRetries", rebindRetries_);
    statGroup_.add("scrubRepairs", scrubRepairs_);
}

bool
GappedVm::isLostCore(sim::CoreId c) const
{
    return std::find(lostCores_.begin(), lostCores_.end(), c) !=
           lostCores_.end();
}

void
GappedVm::releasePlannerReservations()
{
    if (!cfg_.planner || plannerReleased_)
        return;
    plannerReleased_ = true;
    // A quarantined core stays reserved forever: releasing it would
    // let the planner hand an offline core to the next VM (I7).
    std::vector<sim::CoreId> back;
    for (sim::CoreId c : cfg_.guestCores) {
        if (!isLostCore(c))
            back.push_back(c);
    }
    if (!back.empty())
        cfg_.planner->release(back);
}

sim::Proc<bool>
GappedVm::onlineWithRetry(sim::CoreId core)
{
    host::Kernel& kernel = kvm_.kernel();
    if (co_await kernel.onlineCore(core))
        co_return true;
    hotplugRetries_.inc();
    if (co_await kernel.onlineCore(core)) {
        kernel.sim().faults().noteRecovered(
            sim::FaultSite::HotplugOnlineFail);
        co_return true;
    }
    coresLost_.inc();
    lostCores_.push_back(core);
    sim::warn("%s: core %d failed to come back online twice; "
              "quarantining it (stays reserved, never reused)",
              kvm_.guestVm().name().c_str(), core);
    co_return false;
}

sim::Proc<bool>
GappedVm::start()
{
    CG_ASSERT(!started_, "GappedVm started twice");
    started_ = true;
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();
    const int n = kvm_.guestVm().numVcpus();

    // Dedicate the guest cores: hotplug them out of the host and hand
    // them to the monitor in realm world (section 4.2). A core that
    // refuses to offline gets one retry; if it still refuses, the
    // whole bring-up rolls back — no half-dedicated VM, and a failed
    // start leaks no planner reservation (I7).
    std::vector<sim::CoreId> dedicated;
    for (sim::CoreId core : cfg_.guestCores) {
        bool ok = co_await kernel.offlineCore(core);
        if (!ok) {
            hotplugRetries_.inc();
            ok = co_await kernel.offlineCore(core);
            if (ok) {
                machine.sim().faults().noteRecovered(
                    sim::FaultSite::HotplugOfflineFail);
            }
        }
        if (!ok) {
            sim::warn("%s: could not dedicate core %d; rolling back",
                      kvm_.guestVm().name().c_str(), core);
            break;
        }
        const Tick t = machine.switchWorld(core, hw::World::Realm);
        co_await sim::Delay{t};
        machine.core(core).setOccupant(sim::monitorDomain);
        dedicated.push_back(core);
    }
    if (dedicated.size() != cfg_.guestCores.size()) {
        // Hand back everything taken so far. The monitor never ran a
        // guest here, but it did own the cores: scrub its residue
        // before normal world returns (I10).
        for (sim::CoreId core : dedicated) {
            scrubForHandback(machine, core, sim::invalidDomain, false,
                             nullptr);
            co_await sim::Delay{machine.switchWorld(
                core, hw::World::Normal)};
            co_await onlineWithRetry(core);
        }
        releasePlannerReservations();
        started_ = false;
        co_return false;
    }
    for (int i = 0; i < n; ++i) {
        monitorProcs_[static_cast<size_t>(i)] = &machine.sim().spawn(
            sim::strFormat("%s/rmm-core%d",
                           kvm_.guestVm().name().c_str(),
                           cfg_.guestCores[static_cast<size_t>(i)]),
            monitorCoreLoop(i, cfg_.guestCores[static_cast<size_t>(i)],
                            monGen_[static_cast<size_t>(i)]));
    }

    // Re-apply direct-delivery MSI routes: hotplug migrated all SPIs
    // away from the cores we just offlined, but directly-delivered
    // interrupts belong ON the dedicated cores.
    for (const auto& [spi, target] : directIrqs_) {
        machine.gic().routeSpi(
            spi, cfg_.guestCores[static_cast<size_t>(target.first)]);
    }

    // Host side: wake-up thread plus one FIFO thread per vCPU. The
    // doorbell sets a level-triggered flag: rings can coalesce while
    // the wake-up thread is mid-sweep.
    doorbellSub_ = doorbell_.subscribe(doorbellTarget_, [this] {
        doorbellPending_ = true;
        wakeupNotify_.notifyAll();
    });
    wakeupThread_ = &kernel.createThread(
        sim::strFormat("%s/wakeup", kvm_.guestVm().name().c_str()),
        wakeupThreadBody(), host::SchedClass::Fifo, cfg_.hostCores);
    wakeupThread_->footprint = 32;
    kvm_.setAliveVcpus(n);
    for (int i = 0; i < n; ++i) {
        VCpu& v = kvm_.guestVm().vcpu(i);
        v.setTickPeriod(kvm_.guestVm().config().tickPeriod);
        host::Thread& t = kernel.createThread(
            sim::strFormat("%s/vcpu%d-thread",
                           kvm_.guestVm().name().c_str(), i),
            vcpuThreadBody(i),
            cfg_.busyWaitRun ? host::SchedClass::Fair
                             : host::SchedClass::Fifo,
            cfg_.hostCores);
        t.footprint = kvm_.config().vcpuThreadFootprint;
        vcpuThreads_.push_back(&t);
    }
    co_return true;
}

sim::Proc<void>
GappedVm::teardown()
{
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();
    const sim::DomainId guest_domain = kvm_.guestVm().domain();
    // Destroy the realm: its RECs first, which releases the
    // dedicated-core bindings, and every granule goes back to the host.
    vmm::destroyRealm(rmm_, kernel, realm_);
    stopMonitors_ = true;
    monitorWork_.notifyAll();
    // Reclaim the cores: the monitor scrubs the guest's (and its own)
    // microarchitectural residue before normal world ever runs here
    // again — without this, the cores would hand the host exactly the
    // per-core side channel core gapping exists to close.
    for (sim::CoreId core : cfg_.guestCores) {
        scrubForHandback(machine, core, guest_domain,
                         cfg_.verifyScrubs, &scrubRepairs_);
        const Tick t = machine.switchWorld(core, hw::World::Normal);
        co_await sim::Delay{t};
        co_await onlineWithRetry(core);
    }
    releasePlannerReservations();
}

sim::Proc<void>
GappedVm::terminate()
{
    CG_ASSERT(started_, "terminate before start");
    hw::Machine& machine = kvm_.kernel().machine();
    const int n = kvm_.guestVm().numVcpus();
    // Force every live vCPU out of guest execution and park its run
    // loop; vCPUs that already shut down need nothing.
    for (int i = 0; i < n; ++i) {
        if (vcpuThreads_[static_cast<size_t>(i)]->done())
            continue;
        Park& park = *parks_[static_cast<size_t>(i)];
        park.requested = true;
        park.resume.reset();
        VCpu& v = kvm_.guestVm().vcpu(i);
        if (v.entered()) {
            machine.gic().sendSgi(
                cfg_.guestCores[static_cast<size_t>(i)], kickSgi);
        }
    }
    // Wait for each run loop to reach the park gate. With faults
    // armed the wait is bounded: a hung monitor never publishes the
    // exit, so its vCPU thread never parks — after parkDeadline the
    // host stops cooperating and reclaims the core by force.
    const bool bounded = machine.sim().faults().armed();
    for (int i = 0; i < n; ++i) {
        if (vcpuThreads_[static_cast<size_t>(i)]->done())
            continue;
        Park& park = *parks_[static_cast<size_t>(i)];
        if (!bounded) {
            while (!park.parked)
                co_await park.parkedNotify.wait();
            continue;
        }
        bool hung = false;
        while (!park.parked) {
            const Tick deadline = machine.sim().now() + parkDeadline;
            const sim::EventId timer = machine.sim().queue().scheduleIn(
                parkDeadline,
                [&park] { park.parkedNotify.notifyAll(); });
            co_await park.parkedNotify.wait();
            machine.sim().queue().cancel(timer);
            if (!park.parked && machine.sim().now() >= deadline) {
                hung = true;
                break;
            }
        }
        if (!hung)
            continue;
        machine.sim().faults().noteDetected(
            sim::FaultSite::MonitorHang);
        sim::warn("%s/vcpu%d: monitor on core %d unresponsive; "
                  "force-stopping its REC and reclaiming the core",
                  kvm_.guestVm().name().c_str(), i,
                  cfg_.guestCores[static_cast<size_t>(i)]);
        // Kill the wedged monitor loop, force the REC out of Running
        // so teardown()'s recDestroy succeeds, and drop the vCPU
        // thread (its run call can never complete). teardown() then
        // scrubs the core like any other before the host gets it
        // back (I10).
        if (monitorProcs_[static_cast<size_t>(i)]) {
            monitorProcs_[static_cast<size_t>(i)]->kill();
            monitorProcs_[static_cast<size_t>(i)] = nullptr;
        }
        rmm_.recForceStop(realm_, i);
        if (!vcpuThreads_[static_cast<size_t>(i)]->done())
            vcpuThreads_[static_cast<size_t>(i)]->process().kill();
        hangReclaims_.inc();
        machine.sim().faults().noteRecovered(
            sim::FaultSite::MonitorHang);
    }
    // The host kills the VMM's threads outright.
    for (host::Thread* t : vcpuThreads_) {
        if (t && !t->done())
            t->process().kill();
    }
    if (wakeupThread_ && !wakeupThread_->done())
        wakeupThread_->process().kill();
    co_await teardown();
    kvm_.shutdownGate().open();
}

// --------------------------------------------------------- monitor side

sim::Proc<void>
GappedVm::monitorCoreLoop(int idx, sim::CoreId core, std::uint64_t gen)
{
    RunSlot& slot = *slots_[static_cast<size_t>(idx)];
    VCpu& v = kvm_.guestVm().vcpu(idx);
    hw::Machine& machine = kvm_.kernel().machine();

    // Physical interrupts on a dedicated core are delivered to the
    // monitor: device MSIs mapped for direct delivery are injected
    // straight into the guest (no exit); anything else is a host kick
    // that must force the REC to exit so the host regains service.
    machine.gic().setSink(core, [this, &v, idx](hw::IntId id) {
        if (hw::isSpi(id)) {
            auto it = directIrqs_.find(id);
            if (it != directIrqs_.end() && it->second.first == idx) {
                directInjections_.inc();
                v.injectVirq(it->second.second);
                return;
            }
        }
        v.forceExit(ExitReason::HostKick);
    });

    Tick last_exit = 0;
    const auto retired = [this, idx, gen] {
        return stopMonitors_ || monGen_[static_cast<size_t>(idx)] != gen;
    };
    for (;;) {
        while (!slot.posted() && !syncRpc_.pending()) {
            if (retired())
                co_return;
            co_await monitorWork_.wait();
        }
        if (retired())
            co_return;
        if (machine.sim().faults().armed() &&
            machine.sim().faults().query(
                sim::FaultSite::MonitorHang)) {
            // The monitor wedges (modelling a monitor bug): it keeps
            // the core but never services work again. Nothing on the
            // cooperative path can wake it; only terminate()'s
            // escalation reclaims the core.
            co_await hangNotify_.wait();
            co_return;
        }
        if (syncRpc_.pending()) {
            co_await syncRpc_.serviceOne();
            continue;
        }
        rmm::RecEnterArgs args = co_await slot.takeArgs();
        if (last_exit != 0)
            runToRun_.sample(machine.sim().now() - last_exit);
        rmm::RecRunResult res =
            co_await rmm_.recEnter(realm_, idx, std::move(args), core);
        last_exit = machine.sim().now();
        slot.publish(std::move(res));
        doorbell_.ring(doorbellTarget_);
    }
}

// ------------------------------------------------------------ host side

sim::Proc<void>
GappedVm::wakeupThreadBody()
{
    const hw::Costs& costs = kvm_.kernel().machine().costs();
    hw::Machine& machine = kvm_.kernel().machine();
    sim::Simulation& sim = machine.sim();
    // With faults armed the doorbell wait is bounded by a watchdog: a
    // sweep finding an undelivered response without a pending doorbell
    // means the ring was lost in flight — re-ring it. Delivery is
    // at-least-once; the per-slot delivered_ flag dedups extra rings.
    const bool watchdog = sim.faults().armed();
    for (;;) {
        if (cfg_.wakeSpinMax > 0 && !doorbellPending_) {
            // Adaptive spin-then-sleep: burn the spin budget polling
            // the doorbell flag before paying the blocking-wait wake
            // path. A hit means the workload is bursting — double the
            // budget (up to the cap) to stay hot for the next
            // response; a miss halves it so idle VMs decay back to
            // pure blocking and stop wasting the host core.
            if (wakeSpinBudget_ == 0) {
                wakeSpinBudget_ = std::max<Tick>(
                    cfg_.wakeSpinMax / 2, costs.pollReaction);
            }
            const Tick spin_start = sim.now();
            while (!doorbellPending_ &&
                   sim.now() - spin_start < wakeSpinBudget_)
                co_await Compute{machine.cost(costs.pollReaction)};
            if (doorbellPending_) {
                wakeSpinHits_.inc();
                sim.tracer().instant("wake-spin-hit",
                                     sim::Tracer::domainsPid,
                                     kvm_.guestVm().domain());
                wakeSpinBudget_ = std::min(wakeSpinBudget_ * 2,
                                           cfg_.wakeSpinMax);
            } else {
                wakeSpinSleeps_.inc();
                wakeSpinBudget_ = std::max<Tick>(
                    wakeSpinBudget_ / 2, costs.pollReaction);
            }
        }
        while (!doorbellPending_) {
            if (!watchdog) {
                co_await wakeupNotify_.wait();
                continue;
            }
            watchdogEvent_ = sim.queue().scheduleIn(
                watchdogPeriod, [this] { wakeupNotify_.notifyAll(); });
            co_await wakeupNotify_.wait();
            sim.queue().cancel(watchdogEvent_);
            watchdogEvent_ = sim::invalidEventId;
            if (doorbellPending_)
                break;
            bool missed = false;
            for (auto& slot : slots_) {
                if (slot->needsDelivery()) {
                    missed = true;
                    break;
                }
            }
            if (missed) {
                sim.faults().noteDetected(sim::FaultSite::DoorbellLost);
                reringOutstanding_ = true;
                doorbell_.rering(doorbellTarget_);
            }
        }
        doorbellPending_ = false;
        // Sweep the channels until a pass finds nothing, then suspend
        // until the next doorbell (fig. 4, steps 3-6).
        bool found = true;
        while (found) {
            found = false;
            for (auto& slot : slots_) {
                co_await Compute{machine.cost(costs.pollReaction)};
                if (slot->needsDelivery()) {
                    slot->markDelivered();
                    // The wake-up thread's own contribution to the
                    // serving tail: response visible -> vCPU woken.
                    wakeLatency_.sample(sim.now() - slot->readyAt());
                    slot->hostNotify().notifyAll();
                    found = true;
                    if (reringOutstanding_) {
                        reringOutstanding_ = false;
                        sim.faults().noteRecovered(
                            sim::FaultSite::DoorbellLost);
                    }
                }
            }
        }
    }
}

sim::Proc<void>
GappedVm::vcpuThreadBody(int idx)
{
    RunSlot& slot = *slots_[static_cast<size_t>(idx)];
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();
    const hw::Costs& costs = machine.costs();

    Park& park = *parks_[static_cast<size_t>(idx)];
    for (;;) {
        if (park.requested) {
            // A rebind is in progress: hold the run loop here until
            // the vCPU has a new dedicated core.
            park.parked = true;
            park.parkedNotify.notifyAll();
            co_await park.resume.wait();
            park.parked = false;
        }
        rmm::RecEnterArgs args;
        args.injectVirqs = kvm_.drainInjections(idx);
        args.mmioResponse = kvm_.takeMmioResponse(idx);
        const Tick posted_at = machine.sim().now();
        slot.post(std::move(args));
        if (cfg_.busyWaitRun) {
            // Quarantine-style: stay runnable, poll, yield. With many
            // vCPU threads this saturates the host core (fig. 6).
            while (!slot.responseReady()) {
                co_await Compute{machine.cost(costs.pollReaction)};
                co_await kernel.yield();
            }
        } else {
            while (!slot.responseReady())
                co_await slot.hostNotify().wait();
            // Futex-style block/unblock cost of the blocking design.
            co_await Compute{machine.cost(costs.threadBlockUnblock)};
        }
        rmm::RecRunResult res = co_await slot.takeResponse();
        runCallRtt_.sample(machine.sim().now() - posted_at);
        // The run call returns to the userspace VMM, which decides how
        // to handle the exit before issuing the next call.
        co_await Compute{machine.cost(costs.vmmRunLoop)};
        if (res.status != rmm::RmiStatus::Success) {
            sim::warn("%s/vcpu%d: run call failed: %s",
                      kvm_.guestVm().name().c_str(), idx,
                      rmm::rmiStatusName(res.status));
            break;
        }
        co_await kvm_.applyExit(idx, res.exit);
        if (res.exit.reason == ExitReason::Shutdown)
            break;
        if (res.exit.reason == ExitReason::Wfi)
            co_await kvm_.waitRunnable(idx);
    }
    kvm_.notifyVcpuShutdown();
}

sim::Proc<void>
GappedVm::suspend()
{
    CG_ASSERT(started_ && !suspended_, "bad suspend");
    suspended_ = true;
    hw::Machine& machine = kvm_.kernel().machine();
    const int n = kvm_.guestVm().numVcpus();
    for (int i = 0; i < n; ++i) {
        if (vcpuThreads_[static_cast<size_t>(i)]->done())
            continue; // guest already shut down
        Park& park = *parks_[static_cast<size_t>(i)];
        park.requested = true;
        park.resume.reset();
        VCpu& v = kvm_.guestVm().vcpu(i);
        if (v.entered()) {
            machine.gic().sendSgi(
                cfg_.guestCores[static_cast<size_t>(i)], kickSgi);
        }
    }
    for (int i = 0; i < n; ++i) {
        if (vcpuThreads_[static_cast<size_t>(i)]->done())
            continue;
        Park& park = *parks_[static_cast<size_t>(i)];
        while (!park.parked)
            co_await park.parkedNotify.wait();
    }
}

sim::Proc<bool>
GappedVm::trySuspend(Tick deadline)
{
    CG_ASSERT(started_ && !suspended_, "bad trySuspend");
    hw::Machine& machine = kvm_.kernel().machine();
    const int n = kvm_.guestVm().numVcpus();
    for (int i = 0; i < n; ++i) {
        if (vcpuThreads_[static_cast<size_t>(i)]->done())
            continue;
        Park& park = *parks_[static_cast<size_t>(i)];
        park.requested = true;
        park.resume.reset();
        VCpu& v = kvm_.guestVm().vcpu(i);
        if (v.entered()) {
            machine.gic().sendSgi(
                cfg_.guestCores[static_cast<size_t>(i)], kickSgi);
        }
    }
    bool hung = false;
    for (int i = 0; i < n && !hung; ++i) {
        if (vcpuThreads_[static_cast<size_t>(i)]->done())
            continue;
        Park& park = *parks_[static_cast<size_t>(i)];
        while (!park.parked) {
            const Tick limit = machine.sim().now() + deadline;
            const sim::EventId timer = machine.sim().queue().scheduleIn(
                deadline, [&park] { park.parkedNotify.notifyAll(); });
            co_await park.parkedNotify.wait();
            machine.sim().queue().cancel(timer);
            if (!park.parked && machine.sim().now() >= limit) {
                hung = true;
                break;
            }
        }
    }
    if (hung) {
        // Roll the parks back: the VM keeps running; the caller
        // escalates (terminate() reclaims hung monitors by force).
        for (auto& park : parks_) {
            park->requested = false;
            park->resume.open();
        }
        co_return false;
    }
    suspended_ = true;
    co_return true;
}

void
GappedVm::resume()
{
    CG_ASSERT(suspended_, "resume without suspend");
    suspended_ = false;
    for (auto& park : parks_) {
        park->requested = false;
        park->resume.open();
    }
}

void
GappedVm::mapDirectIrq(hw::IntId spi, hw::IntId virq, int vcpu_idx)
{
    CG_ASSERT(hw::isSpi(spi), "direct delivery needs an SPI");
    CG_ASSERT(vcpu_idx >= 0 && vcpu_idx < kvm_.guestVm().numVcpus(),
              "bad vCPU index %d", vcpu_idx);
    directIrqs_[spi] = {vcpu_idx, virq};
    kvm_.kernel().machine().gic().routeSpi(
        spi, cfg_.guestCores[static_cast<size_t>(vcpu_idx)]);
}

sim::Proc<bool>
GappedVm::rebindVcpu(int idx, sim::CoreId new_core)
{
    CG_ASSERT(started_, "rebind before start");
    CG_ASSERT(!suspended_, "rebind while suspended is not supported");
    CG_ASSERT(idx >= 0 && idx < kvm_.guestVm().numVcpus(),
              "bad vCPU index %d", idx);
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();
    VCpu& v = kvm_.guestVm().vcpu(idx);
    Park& park = *parks_[static_cast<size_t>(idx)];
    const sim::CoreId old_core =
        cfg_.guestCores[static_cast<size_t>(idx)];

    // 1. Park the host-side run loop: ask, kick the guest out of its
    //    current run call, and wait for the thread to reach the gate.
    park.requested = true;
    park.resume.reset();
    if (v.entered())
        machine.gic().sendSgi(old_core, kickSgi);
    while (!park.parked)
        co_await park.parkedNotify.wait();

    // 2. Retire the old monitor loop (bump its generation).
    ++monGen_[static_cast<size_t>(idx)];
    monitorWork_.notifyAll();
    co_await sim::join(*monitorProcs_[static_cast<size_t>(idx)]);

    // 3. Dedicate the new core: hotplug it away from the host and
    //    switch it into realm world. On failure (after one retry)
    //    restart the old monitor loop and report the rebind refused.
    bool took = co_await kernel.offlineCore(new_core);
    if (!took) {
        hotplugRetries_.inc();
        took = co_await kernel.offlineCore(new_core);
        if (took) {
            machine.sim().faults().noteRecovered(
                sim::FaultSite::HotplugOfflineFail);
        }
    }
    if (!took) {
        sim::warn("%s/vcpu%d: rebind: could not dedicate core %d",
                  kvm_.guestVm().name().c_str(), idx, new_core);
        monitorProcs_[static_cast<size_t>(idx)] =
            &machine.sim().spawn(
                sim::strFormat("%s/rmm-core%d",
                               kvm_.guestVm().name().c_str(), old_core),
                monitorCoreLoop(idx, old_core,
                                monGen_[static_cast<size_t>(idx)]));
        park.requested = false;
        park.resume.open();
        co_return false;
    }
    co_await sim::Delay{machine.switchWorld(new_core,
                                            hw::World::Realm)};
    machine.core(new_core).setOccupant(sim::monitorDomain);

    // 4. The monitor validates and performs the rebind, scrubbing the
    //    old core's guest residue. A rate-limit refusal (Busy with a
    //    known allowed-at tick) is not dropped: the control plane
    //    holds the dedicated new core, backs off until the limiter
    //    window opens, and retries — bounded so a Busy of any other
    //    cause still rolls back.
    rmm::RmiStatus s = rmm_.recRebind(realm_, idx, new_core);
    for (int attempt = 0;
         s == rmm::RmiStatus::Busy && attempt < maxRebindRetries;
         ++attempt) {
        const Tick allowed = rmm_.rebindAllowedAt(realm_, idx);
        const Tick now = machine.sim().now();
        if (allowed <= now)
            break; // Busy for a non-rate-limit reason
        rebindRetries_.inc();
        co_await sim::Delay{allowed - now};
        s = rmm_.recRebind(realm_, idx, new_core);
    }
    if (s != rmm::RmiStatus::Success) {
        // Roll back: return the new core to the host, restart the old
        // monitor loop, unpark.
        sim::warn("%s/vcpu%d: rebind to core %d refused: %s",
                  kvm_.guestVm().name().c_str(), idx, new_core,
                  rmm::rmiStatusName(s));
        co_await sim::Delay{machine.switchWorld(new_core,
                                                hw::World::Normal)};
        co_await onlineWithRetry(new_core);
        monitorProcs_[static_cast<size_t>(idx)] =
            &machine.sim().spawn(
                sim::strFormat("%s/rmm-core%d",
                               kvm_.guestVm().name().c_str(), old_core),
                monitorCoreLoop(idx, old_core,
                                monGen_[static_cast<size_t>(idx)]));
        park.requested = false;
        park.resume.open();
        co_return false;
    }

    // 5. New monitor loop on the new core; unpark the run loop.
    monitorProcs_[static_cast<size_t>(idx)] = &machine.sim().spawn(
        sim::strFormat("%s/rmm-core%d", kvm_.guestVm().name().c_str(),
                       new_core),
        monitorCoreLoop(idx, new_core,
                        monGen_[static_cast<size_t>(idx)]));
    cfg_.guestCores[static_cast<size_t>(idx)] = new_core;
    // Directly-delivered interrupts follow the vCPU to its new core.
    for (const auto& [spi, target] : directIrqs_) {
        if (target.first == idx)
            machine.gic().routeSpi(spi, new_core);
    }
    park.requested = false;
    park.resume.open();

    // 6. Hand the old core back to the host.
    co_await sim::Delay{machine.switchWorld(old_core,
                                            hw::World::Normal)};
    co_await onlineWithRetry(old_core);
    co_return true;
}

} // namespace cg::core
