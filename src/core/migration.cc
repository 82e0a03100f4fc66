#include "core/migration.hh"

#include <algorithm>

#include "check/checker.hh"
#include "core/planner.hh"
#include "core/scrub.hh"
#include "sim/simulation.hh"

namespace cg::core {

using rmm::PhysAddr;
using rmm::RmiStatus;
using sim::CoreId;
using sim::Tick;

const char*
migrateResultName(MigrateResult r)
{
    switch (r) {
      case MigrateResult::Committed:
        return "Committed";
      case MigrateResult::RolledBack:
        return "RolledBack";
      case MigrateResult::Refused:
        return "Refused";
    }
    return "?";
}

MigrationController::MigrationController(GappedVm& vm,
                                         CorePlanner* planner,
                                         MigrationConfig cfg)
    : vm_(vm),
      planner_(planner ? planner : vm.config().planner),
      cfg_(cfg)
{
    // Reservation bookkeeping must go through one planner: the VM's
    // teardown releases whatever pool it ends up on.
    if (planner && vm.config().planner &&
        planner != vm.config().planner) {
        sim::fatal("MigrationController: planner differs from the "
                   "VM's planner");
    }
}

void
MigrationController::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "migrate." + vm_.kvm_.guestVm().name());
    statGroup_.add("committed", committed_);
    statGroup_.add("rolledBack", rolledBack_);
    statGroup_.add("refused", refused_);
    statGroup_.add("copyRetries", copyRetries_);
}

sim::Proc<void>
MigrationController::rollbackAttempt(
    const std::vector<CoreId>& dest_taken, bool prepared,
    const std::vector<PhysAddr>& dest_granules, bool monitors_retired)
{
    rmm::Rmm& rmm = vm_.rmm_;
    host::Kernel& kernel = vm_.kvm_.kernel();
    hw::Machine& machine = kernel.machine();

    // Undo the RMM's side: abort restores core bindings and releases
    // the partial destination copy back to Delegated.
    if (prepared &&
        rmm.migrationPhase(vm_.realm_) != rmm::MigrationPhase::Idle) {
        const RmiStatus s = rmm.migrateAbort(vm_.realm_);
        CG_ASSERT(s == RmiStatus::Success, "migrateAbort failed: %s",
                  rmm::rmiStatusName(s));
    }
    // The destination granules return to the host.
    for (PhysAddr g : dest_granules)
        vmm::undelegateGranule(rmm, kernel, g);
    // Destination cores go back online. No guest ever ran there, but
    // the monitor owned them: scrub its residue first (I10), exactly
    // like a failed start().
    for (CoreId core : dest_taken) {
        scrubForHandback(machine, core, sim::invalidDomain, false,
                         nullptr);
        co_await sim::Delay{
            machine.switchWorld(core, hw::World::Normal)};
        co_await vm_.onlineWithRetry(core);
    }
    // The realm keeps running where it was: respawn the source
    // monitor loops if we already retired them.
    if (monitors_retired) {
        const int n = vm_.kvm_.guestVm().numVcpus();
        for (int i = 0; i < n; ++i) {
            const CoreId core =
                vm_.cfg_.guestCores[static_cast<size_t>(i)];
            vm_.monitorProcs_[static_cast<size_t>(i)] =
                &machine.sim().spawn(
                    sim::strFormat("%s/rmm-core%d",
                                   vm_.kvm_.guestVm().name().c_str(),
                                   core),
                    vm_.monitorCoreLoop(
                        i, core, vm_.monGen_[static_cast<size_t>(i)]));
        }
    }
    vm_.resume();
}

sim::Proc<bool>
MigrationController::attempt(const std::vector<CoreId>& dest,
                             bool& refused_out, bool& abort_out)
{
    rmm::Rmm& rmm = vm_.rmm_;
    const int realm = vm_.realm_;
    hw::Machine& machine = vm_.kvm_.kernel().machine();
    sim::Simulation& sim = machine.sim();
    host::Kernel& kernel = vm_.kvm_.kernel();
    const hw::Costs& costs = machine.costs();
    const std::string& name = vm_.kvm_.guestVm().name();
    const int n = vm_.kvm_.guestVm().numVcpus();
    const std::vector<CoreId> src = vm_.cfg_.guestCores;

    const auto abort_injected = [&sim] {
        return sim.faults()
            .query(sim::FaultSite::MigrationAbort)
            .has_value();
    };

    // 1. Pause the realm (bounded): a hung monitor refuses the whole
    //    migration rather than wedging it.
    if (!co_await vm_.trySuspend(GappedVm::parkDeadline)) {
        sim::warn("%s: migration refused: a monitor never parked its "
                  "vCPU (hung?)", name.c_str());
        refused_out = true;
        co_return false;
    }

    if (abort_injected()) {
        sim.faults().noteDetected(sim::FaultSite::MigrationAbort);
        abort_out = true;
        co_await rollbackAttempt({}, false, {}, false);
        co_return false;
    }

    // Snapshot the source granule addresses now: after commit they
    // are Delegated and must be handed back to the host.
    const auto src_granules = rmm.granules().owned(realm);

    // 2. Prepare: the RMM snapshots granules and core bindings.
    RmiStatus s = rmm.migratePrepare(realm);
    if (s != RmiStatus::Success) {
        sim::warn("%s: migratePrepare refused: %s", name.c_str(),
                  rmm::rmiStatusName(s));
        refused_out = true;
        co_await rollbackAttempt({}, false, {}, false);
        co_return false;
    }

    // 3. Delegate one destination granule per source granule.
    std::vector<PhysAddr> dest_granules(rmm.migrationGranuleCount(realm));
    for (PhysAddr& g : dest_granules)
        g = vmm::delegateGranule(rmm, kernel);

    // 4. Copy, in batches, with stall retry/backoff. The RMM charges
    //    nothing (same contract as every RMI); the control plane
    //    charges the copy+measurement cost per granule moved.
    Tick backoff = cfg_.retryBackoff;
    int stall_retries = 0;
    bool stalled = false;
    while (rmm.migrationPhase(realm) != rmm::MigrationPhase::Copied) {
        std::size_t copied = 0;
        s = rmm.migrateCopy(realm, dest_granules, cfg_.copyBatch, copied);
        if (s == RmiStatus::Busy) {
            // An injected rtt-copy-stall bounced the batch. Back off
            // (doubling) and resume from the cursor.
            if (!stalled) {
                sim.faults().noteDetected(
                    sim::FaultSite::RttCopyStall);
                stalled = true;
            }
            copyRetries_.inc();
            if (++stall_retries > cfg_.maxCopyRetries) {
                sim::warn("%s: migration copy stalled %d times; "
                          "rolling back", name.c_str(), stall_retries);
                co_await rollbackAttempt({}, true, dest_granules, false);
                co_return false;
            }
            co_await sim::Delay{backoff};
            backoff *= 2;
            continue;
        }
        if (s != RmiStatus::Success) {
            sim::warn("%s: migrateCopy failed: %s", name.c_str(),
                      rmm::rmiStatusName(s));
            co_await rollbackAttempt({}, true, dest_granules, false);
            co_return false;
        }
        if (stalled) {
            sim.faults().noteRecovered(sim::FaultSite::RttCopyStall);
            stalled = false;
            stall_retries = 0;
            backoff = cfg_.retryBackoff;
        }
        co_await sim::Delay{machine.cost(
            costs.granuleCopy * static_cast<Tick>(copied))};
    }

    if (abort_injected()) {
        sim.faults().noteDetected(sim::FaultSite::MigrationAbort);
        abort_out = true;
        co_await rollbackAttempt({}, true, dest_granules, false);
        co_return false;
    }

    // 5. Retire the source monitor loops (they are idle: the realm is
    //    suspended, so no run call or sync RPC is pending).
    for (int i = 0; i < n; ++i)
        ++vm_.monGen_[static_cast<size_t>(i)];
    vm_.monitorWork_.notifyAll();
    for (int i = 0; i < n; ++i) {
        if (vm_.monitorProcs_[static_cast<size_t>(i)])
            co_await sim::join(
                *vm_.monitorProcs_[static_cast<size_t>(i)]);
    }

    // 6. Dedicate the destination pool: hotplug each core out of the
    //    host and hand it to the monitor in realm world.
    std::vector<CoreId> dest_taken;
    for (CoreId core : dest) {
        bool ok = co_await kernel.offlineCore(core);
        if (!ok) {
            vm_.hotplugRetries_.inc();
            ok = co_await kernel.offlineCore(core);
            if (ok) {
                sim.faults().noteRecovered(
                    sim::FaultSite::HotplugOfflineFail);
            }
        }
        if (!ok) {
            sim::warn("%s: migration could not dedicate core %d; "
                      "rolling back", name.c_str(), core);
            co_await rollbackAttempt(dest_taken, true, dest_granules, true);
            co_return false;
        }
        co_await sim::Delay{
            machine.switchWorld(core, hw::World::Realm)};
        machine.core(core).setOccupant(sim::monitorDomain);
        dest_taken.push_back(core);
    }

    // 7. Move each bound REC onto its destination core.
    for (int i = 0; i < n; ++i) {
        if (rmm.recBinding(realm, i) == sim::invalidCore)
            continue; // never dispatched: binds on first enter
        s = rmm.migrateBindRec(realm, i,
                               dest[static_cast<size_t>(i)]);
        if (s != RmiStatus::Success) {
            sim::warn("%s: migrateBindRec(%d) refused: %s",
                      name.c_str(), i, rmm::rmiStatusName(s));
            co_await rollbackAttempt(dest_taken, true, dest_granules, true);
            co_return false;
        }
    }

    if (abort_injected()) {
        sim.faults().noteDetected(sim::FaultSite::MigrationAbort);
        abort_out = true;
        co_await rollbackAttempt(dest_taken, true, dest_granules, true);
        co_return false;
    }

    // 8. Commit: every granule reference rewrites to its destination
    //    and the source granules release. Point of no return.
    s = rmm.migrateCommit(realm);
    CG_ASSERT(s == RmiStatus::Success, "migrateCommit failed: %s",
              rmm::rmiStatusName(s));

    // 9. The realm now lives on the destination pool: monitors, kick
    //    targets, and direct-delivery routes follow it.
    vm_.cfg_.guestCores = dest;
    for (int i = 0; i < n; ++i) {
        vm_.monitorProcs_[static_cast<size_t>(i)] =
            &machine.sim().spawn(
                sim::strFormat("%s/rmm-core%d", name.c_str(),
                               dest[static_cast<size_t>(i)]),
                vm_.monitorCoreLoop(
                    i, dest[static_cast<size_t>(i)],
                    vm_.monGen_[static_cast<size_t>(i)]));
    }
    for (const auto& [spi, target] : vm_.directIrqs_) {
        machine.gic().routeSpi(
            spi, dest[static_cast<size_t>(target.first)]);
    }

    // 10. Scrub-verified source handback: each source core is scrubbed
    //     of guest and monitor residue (or, under verifyScrubs, the
    //     skipped scrub is caught and repaired), the isolation checker
    //     audits the handback, and the core returns to the host.
    const sim::DomainId guest_domain = vm_.kvm_.guestVm().domain();
    for (CoreId core : src) {
        scrubForHandback(machine, core, guest_domain,
                         vm_.cfg_.verifyScrubs, &vm_.scrubRepairs_);
        if (machine.checker())
            machine.checker()->onMigrationHandback(core);
        co_await sim::Delay{
            machine.switchWorld(core, hw::World::Normal)};
        co_await vm_.onlineWithRetry(core);
    }
    // The released source granules return to the host.
    for (const auto& [g, state] : src_granules)
        vmm::undelegateGranule(rmm, kernel, g);

    vm_.resume();
    co_return true;
}

sim::Proc<MigrateResult>
MigrationController::migrateTo(std::vector<CoreId> dest)
{
    CG_ASSERT(vm_.started_, "migrate before start");
    hw::Machine& machine = vm_.kvm_.kernel().machine();
    const std::string& name = vm_.kvm_.guestVm().name();
    const int n = vm_.kvm_.guestVm().numVcpus();

    const auto refuse = [&](const char* why) {
        sim::warn("%s: migration refused: %s", name.c_str(), why);
        refused_.inc();
        return MigrateResult::Refused;
    };
    if (vm_.suspended_)
        co_return refuse("VM is suspended");
    if (static_cast<int>(dest.size()) != n)
        co_return refuse("destination pool size != vCPU count");
    for (CoreId c : dest) {
        if (c < 0 || c >= machine.numCores())
            co_return refuse("destination core out of range");
        if (std::find(vm_.cfg_.guestCores.begin(),
                      vm_.cfg_.guestCores.end(),
                      c) != vm_.cfg_.guestCores.end())
            co_return refuse("destination overlaps current pool");
    }
    if (planner_) {
        for (CoreId c : dest) {
            if (planner_->isReserved(c) ||
                planner_->hostReserved().test(c))
                co_return refuse("destination core not free");
        }
        planner_->reserveExact(dest);
    }

    const std::vector<CoreId> src = vm_.cfg_.guestCores;
    const auto release_skipping_lost =
        [this](const std::vector<CoreId>& cores) {
            if (!planner_)
                return;
            std::vector<CoreId> back;
            for (CoreId c : cores) {
                if (!vm_.isLostCore(c))
                    back.push_back(c);
            }
            if (!back.empty())
                planner_->release(back);
        };

    bool abort_seen = false;
    Tick backoff = cfg_.retryBackoff;
    for (int a = 0; a < cfg_.maxAttempts; ++a) {
        bool att_refused = false;
        bool att_abort = false;
        const bool ok = co_await attempt(dest, att_refused, att_abort);
        abort_seen = abort_seen || att_abort;
        if (ok) {
            if (abort_seen) {
                machine.sim().faults().noteRecovered(
                    sim::FaultSite::MigrationAbort);
            }
            committed_.inc();
            release_skipping_lost(src);
            co_return MigrateResult::Committed;
        }
        if (att_refused) {
            release_skipping_lost(dest);
            refused_.inc();
            co_return MigrateResult::Refused;
        }
        if (a + 1 < cfg_.maxAttempts) {
            co_await sim::Delay{backoff};
            backoff *= 2;
        }
    }
    sim::warn("%s: migration rolled back after %d attempts; realm "
              "intact on its source cores", name.c_str(),
              cfg_.maxAttempts);
    release_skipping_lost(dest);
    rolledBack_.inc();
    co_return MigrateResult::RolledBack;
}

sim::Proc<MigrateResult>
MigrationController::migrate()
{
    if (!planner_) {
        sim::warn("%s: defrag migrate needs a planner",
                  vm_.kvm_.guestVm().name().c_str());
        refused_.inc();
        co_return MigrateResult::Refused;
    }
    const auto dest = planner_->planDefragMove(vm_.cfg_.guestCores);
    if (!dest) {
        // No strictly improving contiguous move exists.
        refused_.inc();
        co_return MigrateResult::Refused;
    }
    co_return co_await migrateTo(*dest);
}

} // namespace cg::core
