/**
 * @file
 * The host operating system model: a Linux-like kernel with
 * per-core runqueues (two scheduling classes), CPU hotplug (including
 * the paper's modification that hands offline cores to the security
 * monitor instead of halting them), IRQ routing, and IPIs.
 *
 * Threads are coroutine processes whose Dispatcher is the Kernel:
 * `co_await Compute{t}` consumes CPU on whichever core the scheduler
 * places the thread, with preemption; blocking awaits release the core.
 */

#ifndef CG_HOST_KERNEL_HH
#define CG_HOST_KERNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host/cpumask.hh"
#include "hw/machine.hh"
#include "sim/proc.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"

namespace cg::host {

using sim::CoreId;
using sim::Proc;
using sim::Tick;

class Kernel;

/** Scheduling class: Fair (CFS-like) or Fifo (SCHED_FIFO, always wins). */
enum class SchedClass { Fair, Fifo };

/**
 * Something a host thread can execute guest code through (KVM_RUN).
 *
 * While a thread is in guest mode (Kernel::runGuest), the kernel calls
 * enterOn()/pause() as the thread goes on and off CPU, so guest
 * progress is gated on host scheduling: a preempted vCPU thread means
 * a paused guest — the shared-core behaviour core gapping removes.
 * Implemented by guest::VCpu.
 */
class GuestExecutor
{
  public:
    virtual ~GuestExecutor() = default;

    /** Resume guest execution on @p core. */
    virtual void enterOn(sim::CoreId core) = 0;

    /** Suspend guest execution (preemption or completion). */
    virtual void pause() = 0;

    /** An exit-worthy event is pending. */
    virtual bool exitReady() const = 0;

    /** Called (possibly redundantly) whenever exitReady becomes true. */
    virtual void setExitReadyHook(std::function<void()> fn) = 0;

    /**
     * Called from the executor's destructor if it dies while a thread
     * is mid-runGuest, so the kernel can drop its pointer. (Orderly
     * shutdown should stop runner threads before destroying guests;
     * this hook only prevents dangling references at teardown.)
     */
    virtual void setAbandonHook(std::function<void()> fn) = 0;

    /** Security domain, for core-occupancy accounting. */
    virtual sim::DomainId executorDomain() const = 0;

    /**
     * Confidential guests run in realm world: every transition on and
     * off CPU is a world switch with the firmware's mitigation flush
     * (exactly the per-exit cost core gapping avoids paying).
     */
    virtual bool confidential() const = 0;
};

/** A host kernel thread wrapping a coroutine process. */
class Thread
{
  public:
    const std::string& name() const;
    sim::Process& process() { return *proc_; }
    SchedClass schedClass() const { return cls_; }
    CpuMask affinity() const { return affinity_; }
    CoreId lastCore() const { return lastCore_; }
    bool onCpu() const { return onCpu_; }
    bool done() const;

    /**
     * Working-set size in cache lines, used for microarchitectural
     * pollution/warm-up accounting when this thread is dispatched.
     */
    std::size_t footprint = 64;

  private:
    friend class Kernel;

    Thread(Kernel& k, SchedClass cls, CpuMask affinity);

    Kernel& kernel_;
    sim::Process* proc_ = nullptr;
    SchedClass cls_;
    CpuMask affinity_;
    CoreId lastCore_ = sim::invalidCore;
    bool onCpu_ = false;   ///< currently current on a core
    bool queued_ = false;  ///< sitting in a runqueue
    Tick remaining_ = 0;   ///< outstanding CPU demand for current Compute
    bool wantsCpu_ = false; ///< has an unfinished Compute outstanding
    bool needsResume_ = false; ///< coroutine must resume once on-CPU
    GuestExecutor* guestRun_ = nullptr; ///< in guest mode (KVM_RUN)
    bool guestEndPending_ = false; ///< exit-ready event scheduled
    /** onRunEvent is resuming the coroutine (Kernel::runAhead). */
    bool runResumed_ = false;
};

/** State the kernel keeps per physical core. */
struct CoreSched {
    bool online = true;
    Thread* current = nullptr;
    Thread* lastRan = nullptr;
    std::deque<Thread*> fifoQueue;
    std::deque<Thread*> fairQueue;
    /** Event that either completes the compute or resumes the thread. */
    sim::EventId runEvent = sim::invalidEventId;
    sim::EventId timesliceEvent = sim::invalidEventId;
    bool dispatchPending = false;
    /** When the current thread's chargeable work started. */
    Tick runChargeStart = 0;
    /** World-switch cost carried into the next dispatch. */
    Tick pendingSwitchCost = 0;
    /** Extra time stolen from the current thread by IRQ handlers. */
    Tick pendingSteal = 0;
};

/**
 * The core to queue a thread with @p affinity and last core @p last
 * on: the least-loaded online core of @p cores in the affinity, with
 * the cache-warm @p last winning ties; invalidCore if none is online.
 * Visits only the affinity's set bits below cores.size().
 */
CoreId pickCore(const std::vector<CoreSched>& cores, CpuMask affinity,
                CoreId last);

/** Statistics the kernel exports. */
struct KernelStats {
    sim::Counter contextSwitches;
    sim::Counter migrations;
    sim::Counter ipis;
    sim::Counter irqs;
    sim::Counter hotplugOps;
    /** Hotplug operations that failed (fault injection only). */
    sim::Counter hotplugFailures;
};

class Kernel : public sim::Dispatcher
{
  public:
    /** Fair-class timeslice when a core is contended. */
    static constexpr Tick quantum = 3 * sim::msec;

    explicit Kernel(hw::Machine& machine);
    ~Kernel() override;

    hw::Machine& machine() { return machine_; }
    sim::Simulation& sim();
    KernelStats& stats() { return stats_; }

    /** Register the kernel's counters under "host." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

    /** @{ Threads. */
    Thread& createThread(std::string name, Proc<void> body,
                         SchedClass cls = SchedClass::Fair,
                         CpuMask affinity = CpuMask::all());

    /** Voluntarily yield the CPU: requeue at the tail of the runqueue. */
    struct YieldAwaiter;
    YieldAwaiter yield();

    /**
     * Run guest code on the calling thread until the guest has an exit
     * pending (KVM_RUN). The thread consumes CPU for the whole guest
     * run and may be preempted/migrated like any other thread, pausing
     * the guest. The caller collects the exit from the executor
     * afterwards.
     */
    struct GuestRunAwaiter;
    GuestRunAwaiter runGuest(GuestExecutor& g);
    /** @} */

    /** @{ CPU hotplug. */
    bool isOnline(CoreId c) const;
    int onlineCount() const;

    /**
     * Take @p c offline: migrate its threads, retarget its IRQs, and —
     * per the paper's modification (section 4.2) — leave it running at
     * full frequency for handover to the security monitor instead of
     * halting it. Completes after the modelled hotplug latency.
     * @return false if the operation failed (fault injection: the
     * core is untouched and stays online); callers must handle it.
     */
    Proc<bool> offlineCore(CoreId c);

    /**
     * Bring @p c back online and start scheduling on it again.
     * @return false if the operation failed (fault injection: the
     * core stays offline); callers may retry.
     */
    Proc<bool> onlineCore(CoreId c);
    /** @} */

    /** @{ Interrupts. */
    /**
     * Allocate one of the free SGI numbers for software use (Linux
     * reserves 7 of the 16; the paper's prototype allocates exactly one
     * more as the CVM-exit doorbell).
     */
    int allocateIpi();

    /** Send IPI @p ipi to core @p target. */
    void sendIpi(CoreId target, int ipi);

    /** Register the handler run (in IRQ context) for IPI @p ipi. */
    void setIpiHandler(int ipi, std::function<void(CoreId)> fn);

    /**
     * Remove a previously registered IPI handler. Owners whose handler
     * captures `this` must call this before they are destroyed, or a
     * later IPI dispatches into freed memory.
     */
    void clearIpiHandler(int ipi);

    /** Register a handler for a device SPI. */
    void setIrqHandler(hw::IntId spi, std::function<void(CoreId)> fn);

    /** Route a device SPI to a core. */
    void routeIrq(hw::IntId spi, CoreId target);
    /** @} */

    /** @{ sim::Dispatcher interface (threads only). */
    void compute(sim::Process& p, Tick amount) override;
    void blocked(sim::Process& p) override;
    void wake(sim::Process& p) override;
    void detach(sim::Process& p) override;
    bool runAhead(sim::Process& p, Tick amount, bool cpu) override;
    /** @} */

    /** The thread owning @p p (asserts it is one of ours). */
    Thread& threadOf(sim::Process& p);

    /**
     * @{ Host physical memory: the page allocator every page the host
     * delegates to the security monitor comes from (DESIGN.md §12).
     * A LIFO free list over a bump pointer: the most recently freed
     * page goes out first.
     */
    static constexpr std::uint64_t pageSize = 4096;
    /** The first page handed out; 0 is never a page. */
    static constexpr std::uint64_t firstPage = 0x80000000;
    std::uint64_t allocPage();
    /** Give back a page allocPage() handed out. */
    void freePage(std::uint64_t page);
    /** Pages handed out and not given back. */
    std::size_t pagesInUse() const;
    /** @} */

  private:
    friend struct YieldAwaiter;
    friend struct GuestRunAwaiter;

    void yieldCurrent(sim::Process& p);
    void beginGuestRun(sim::Process& p, GuestExecutor& g);
    void onGuestExitReady(Thread& t);
    void finishGuestRun(Thread& t);
    void abandonGuestRun(Thread& t);
    Proc<bool> offlineCoreImpl(CoreId c);
    Proc<bool> onlineCoreImpl(CoreId c);
    void enqueue(Thread& t);
    void requeueTail(Thread& t);
    void maybePreempt(CoreId c);
    void dispatch(CoreId c);
    void startRunning(CoreId c, Thread& t);
    void stopRunning(CoreId c, bool requeue);
    void scheduleRun(CoreId c, Tick overhead);
    void cancelCoreEvents(CoreSched& cs);
    void onRunEvent(CoreId c);
    void onTimeslice(CoreId c);
    void removeFromQueues(Thread& t);
    void migrateThreadsAway(CoreId c);
    void onInterrupt(CoreId c, hw::IntId id);
    void scheduleDispatch(CoreId c);

    hw::Machine& machine_;
    std::vector<CoreSched> cores_;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::map<int, std::function<void(CoreId)>> ipiHandlers_;
    std::map<hw::IntId, std::function<void(CoreId)>> irqHandlers_;
    int nextIpi_ = 8; // SGIs 0-7 modelled as reserved by Linux
    std::uint64_t nextPage_ = firstPage;
    std::vector<std::uint64_t> freePages_;
    KernelStats stats_;
    sim::StatGroup statGroup_;
};

/** Awaitable for Kernel::yield(). */
struct Kernel::YieldAwaiter {
    Kernel& kernel;

    bool await_ready() const { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        sim::Process& proc = sim::detail::processOf(h);
        proc.suspendAt(h);
        kernel.yieldCurrent(proc);
    }

    void await_resume() const {}
};

/** Awaitable for Kernel::runGuest(). */
struct Kernel::GuestRunAwaiter {
    Kernel& kernel;
    GuestExecutor& guest;

    bool await_ready() const { return false; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h)
    {
        sim::Process& proc = sim::detail::processOf(h);
        proc.suspendAt(h);
        kernel.beginGuestRun(proc, guest);
    }

    void await_resume() const {}
};

} // namespace cg::host

#endif // CG_HOST_KERNEL_HH
