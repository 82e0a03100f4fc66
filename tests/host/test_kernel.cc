/** @file Unit tests for the host kernel scheduler, threads, and IPIs. */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "host/kernel.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"

using namespace cg::host;
namespace hw = cg::hw;
namespace sim = cg::sim;
using cg::sim::Proc;
using cg::sim::Simulation;
using cg::sim::Tick;
using cg::sim::Delay;
using cg::sim::Compute;
using cg::sim::msec;
using cg::sim::usec;
using cg::sim::nsec;

namespace {

struct KernelFixture : ::testing::Test {
    Simulation sim;
    hw::MachineConfig cfg;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<Kernel> kernel;

    void
    boot(int cores)
    {
        cfg.numCores = cores;
        machine = std::make_unique<hw::Machine>(sim, cfg);
        kernel = std::make_unique<Kernel>(*machine);
    }
};

Proc<void>
computeOnce(Simulation& sim, Tick amount, Tick& finished_at)
{
    co_await Compute{amount};
    finished_at = sim.now();
}

Proc<void>
computeLoop(Tick chunk, int iters, int& count)
{
    for (int i = 0; i < iters; ++i) {
        co_await Compute{chunk};
        ++count;
    }
}

Proc<void>
sleepThenCompute(Simulation& sim, Tick sleep_for, Tick work,
                 Tick& finished_at)
{
    co_await Delay{sleep_for};
    co_await Compute{work};
    finished_at = sim.now();
}

Proc<void>
yieldingPoller(Kernel& k, bool& stop, int& spins)
{
    while (!stop) {
        co_await Compute{1 * usec};
        ++spins;
        co_await k.yield();
    }
}

Proc<void>
stopAfter(Simulation& sim, Tick when, bool& stop)
{
    co_await Delay{when};
    stop = true;
    (void)sim;
}

Proc<void>
waitChannel(cg::sim::Channel<int>& ch, int& got, Simulation& sim,
            Tick& when)
{
    got = co_await ch.recv();
    when = sim.now();
}

Proc<void>
sendChannelLater(cg::sim::Channel<int>& ch, Tick after, int value)
{
    co_await Delay{after};
    ch.send(value);
}

Proc<void>
offlineThenFlag(Kernel& k, sim::CoreId c, bool& done)
{
    co_await k.offlineCore(c);
    done = true;
}

Proc<void>
onlineThenFlag(Kernel& k, sim::CoreId c, bool& done)
{
    co_await k.onlineCore(c);
    done = true;
}

/** A non-confidential guest that has an exit ready @p runFor after
 * it is first entered, and records when that was. */
class StubGuest : public GuestExecutor
{
  public:
    StubGuest(Simulation& sim, Tick run_for) : sim_(sim), runFor_(run_for)
    {}

    Tick exitAt = 0;

    void
    enterOn(sim::CoreId) override
    {
        if (exitEvent_ != sim::invalidEventId || ready_)
            return;
        exitEvent_ = sim_.queue().scheduleIn(runFor_, [this] {
            exitEvent_ = sim::invalidEventId;
            ready_ = true;
            exitAt = sim_.now();
            if (hook_)
                hook_();
        });
    }

    void
    pause() override
    {
        sim_.queue().cancel(exitEvent_);
        exitEvent_ = sim::invalidEventId;
    }

    bool exitReady() const override { return ready_; }

    void
    setExitReadyHook(std::function<void()> fn) override
    {
        hook_ = std::move(fn);
    }

    void setAbandonHook(std::function<void()>) override {}
    sim::DomainId executorDomain() const override
    {
        return sim::firstVmDomain;
    }
    bool confidential() const override { return false; }

  private:
    Simulation& sim_;
    Tick runFor_;
    sim::EventId exitEvent_ = sim::invalidEventId;
    bool ready_ = false;
    std::function<void()> hook_;
};

Proc<void>
guestThenWait(Kernel& k, GuestExecutor& g, sim::Notify& n)
{
    co_await k.runGuest(g);
    co_await n.wait();
}

Proc<void>
recordStart(Simulation& sim, Tick& started)
{
    started = sim.now();
    co_return;
}

} // namespace

TEST_F(KernelFixture, SingleThreadComputeTakesItsTime)
{
    boot(2);
    Tick done = 0;
    kernel->createThread("t", computeOnce(sim, 10 * msec, done));
    sim.run();
    // Work plus dispatch overheads; strictly more than the pure work.
    EXPECT_GE(done, 10 * msec);
    EXPECT_LT(done, 10 * msec + 100 * usec);
}

TEST_F(KernelFixture, ThreadsSpreadAcrossIdleCores)
{
    boot(4);
    Tick d1 = 0, d2 = 0, d3 = 0, d4 = 0;
    kernel->createThread("a", computeOnce(sim, 10 * msec, d1));
    kernel->createThread("b", computeOnce(sim, 10 * msec, d2));
    kernel->createThread("c", computeOnce(sim, 10 * msec, d3));
    kernel->createThread("d", computeOnce(sim, 10 * msec, d4));
    sim.run();
    // All four ran in parallel on distinct cores.
    for (Tick d : {d1, d2, d3, d4}) {
        EXPECT_GE(d, 10 * msec);
        EXPECT_LT(d, 11 * msec);
    }
}

TEST_F(KernelFixture, AffinityConfinesThreadsToOneCore)
{
    boot(4);
    Tick d1 = 0, d2 = 0;
    kernel->createThread("a", computeOnce(sim, 10 * msec, d1),
                         SchedClass::Fair, CpuMask::single(2));
    kernel->createThread("b", computeOnce(sim, 10 * msec, d2),
                         SchedClass::Fair, CpuMask::single(2));
    sim.run();
    // Serialised on core 2: the later one takes ~20ms.
    const Tick later = std::max(d1, d2);
    EXPECT_GE(later, 20 * msec);
}

TEST_F(KernelFixture, FairThreadsTimesliceOnSharedCore)
{
    boot(1);
    int c1 = 0, c2 = 0;
    // Two long-running threads on one core: both should make progress
    // before either finishes (timeslicing), so completion counts stay
    // close as time advances.
    kernel->createThread("a", computeLoop(20 * msec, 5, c1));
    kernel->createThread("b", computeLoop(20 * msec, 5, c2));
    sim.runFor(100 * msec);
    EXPECT_GT(c1, 0);
    EXPECT_GT(c2, 0);
    sim.run();
    EXPECT_EQ(c1, 5);
    EXPECT_EQ(c2, 5);
}

TEST_F(KernelFixture, FifoPreemptsFairImmediately)
{
    boot(1);
    Tick fair_done = 0, fifo_done = 0;
    kernel->createThread("fair", computeOnce(sim, 50 * msec, fair_done),
                         SchedClass::Fair);
    // The FIFO thread wakes at 10ms and must finish long before the
    // fair thread despite arriving later.
    kernel->createThread(
        "fifo", sleepThenCompute(sim, 10 * msec, 5 * msec, fifo_done),
        SchedClass::Fifo);
    sim.run();
    EXPECT_LT(fifo_done, fair_done);
    EXPECT_GE(fifo_done, 15 * msec);
    EXPECT_LT(fifo_done, 16 * msec);
    // The fair thread paid for the preemption window.
    EXPECT_GE(fair_done, 55 * msec);
}

TEST_F(KernelFixture, BlockedThreadReleasesCore)
{
    boot(1);
    cg::sim::Channel<int> ch;
    int got = 0;
    Tick got_at = 0;
    Tick other_done = 0;
    kernel->createThread("waiter", waitChannel(ch, got, sim, got_at));
    kernel->createThread("worker",
                         computeOnce(sim, 5 * msec, other_done));
    kernel->createThread("sender", sendChannelLater(ch, 20 * msec, 7));
    sim.run();
    // The worker was not blocked behind the waiting thread.
    EXPECT_LT(other_done, 6 * msec);
    EXPECT_EQ(got, 7);
    EXPECT_GE(got_at, 20 * msec);
}

TEST_F(KernelFixture, YieldRotatesEqualPriorityThreads)
{
    boot(1);
    bool stop = false;
    int s1 = 0, s2 = 0;
    kernel->createThread("p1", yieldingPoller(*kernel, stop, s1));
    kernel->createThread("p2", yieldingPoller(*kernel, stop, s2));
    sim.spawn("stopper", stopAfter(sim, 5 * msec, stop));
    sim.run();
    EXPECT_GT(s1, 0);
    EXPECT_GT(s2, 0);
    // Round-robin: neither poller starves the other.
    EXPECT_NEAR(static_cast<double>(s1), static_cast<double>(s2),
                static_cast<double>(s1 + s2) * 0.25);
}

TEST_F(KernelFixture, HotplugOfflineMigratesThreads)
{
    boot(2);
    int count = 0;
    // Pin work to core 1, then offline core 1: affinity is broken and
    // the work completes on core 0.
    kernel->createThread("w", computeLoop(5 * msec, 10, count),
                         SchedClass::Fair, CpuMask::single(1));
    bool offlined = false;
    kernel->createThread("planner",
                         offlineThenFlag(*kernel, 1, offlined),
                         SchedClass::Fair, CpuMask::single(0));
    sim.run();
    EXPECT_TRUE(offlined);
    EXPECT_FALSE(kernel->isOnline(1));
    EXPECT_EQ(kernel->onlineCount(), 1);
    EXPECT_EQ(count, 10);
}

TEST_F(KernelFixture, HotplugRoundTripRestoresCore)
{
    boot(2);
    bool offlined = false, onlined = false;
    kernel->createThread("planner", offlineThenFlag(*kernel, 1, offlined),
                         SchedClass::Fair, CpuMask::single(0));
    sim.run();
    ASSERT_TRUE(offlined);
    kernel->createThread("planner2", onlineThenFlag(*kernel, 1, onlined),
                         SchedClass::Fair, CpuMask::single(0));
    sim.run();
    ASSERT_TRUE(onlined);
    EXPECT_TRUE(kernel->isOnline(1));
    // Invariant I6: the restored core can run threads again.
    Tick done = 0;
    kernel->createThread("w", computeOnce(sim, 1 * msec, done),
                         SchedClass::Fair, CpuMask::single(1));
    sim.run();
    EXPECT_GE(done, 1 * msec);
    EXPECT_GT(done, 0u);
}

TEST_F(KernelFixture, CannotOfflineLastCore)
{
    boot(1);
    // Validation is eager, so the guard throws at the call site.
    EXPECT_THROW(
        { auto p = kernel->offlineCore(0); (void)p; },
        cg::sim::FatalError);
}

TEST_F(KernelFixture, CannotOfflineAlreadyOfflineCore)
{
    boot(2);
    bool offlined = false;
    kernel->createThread("planner", offlineThenFlag(*kernel, 1, offlined),
                         SchedClass::Fair, CpuMask::single(0));
    sim.run();
    ASSERT_TRUE(offlined);
    EXPECT_THROW(
        { auto p = kernel->offlineCore(1); (void)p; },
        cg::sim::FatalError);
}

TEST_F(KernelFixture, IpiAllocationSkipsReservedSgis)
{
    boot(2);
    const int first = kernel->allocateIpi();
    EXPECT_GE(first, 8);
    const int second = kernel->allocateIpi();
    EXPECT_NE(first, second);
}

TEST_F(KernelFixture, IpiDeliveredToHandler)
{
    boot(2);
    const int ipi = kernel->allocateIpi();
    std::vector<sim::CoreId> fired_on;
    kernel->setIpiHandler(ipi, [&](sim::CoreId c) {
        fired_on.push_back(c);
    });
    kernel->sendIpi(1, ipi);
    sim.run();
    ASSERT_EQ(fired_on.size(), 1u);
    EXPECT_EQ(fired_on[0], 1);
    EXPECT_EQ(kernel->stats().ipis.value(), 1u);
}

TEST_F(KernelFixture, IrqHandlerStealsCpuFromCurrentThread)
{
    boot(1);
    Tick done = 0;
    kernel->createThread("w", computeOnce(sim, 10 * msec, done));
    const int ipi = kernel->allocateIpi();
    kernel->setIpiHandler(ipi, [](sim::CoreId) {});
    // Fire a burst of IPIs at the busy core.
    for (int i = 0; i < 100; ++i) {
        sim.queue().schedule(static_cast<Tick>(i + 1) * 50 * usec,
                             [this, ipi] { kernel->sendIpi(0, ipi); });
    }
    sim.run();
    // 100 x irqEntry ~= 50us pushed the completion out.
    EXPECT_GT(done, 10 * msec + 30 * usec);
}

TEST_F(KernelFixture, ContextSwitchStatsAccumulate)
{
    boot(1);
    int c1 = 0, c2 = 0;
    kernel->createThread("a", computeLoop(10 * msec, 3, c1));
    kernel->createThread("b", computeLoop(10 * msec, 3, c2));
    sim.run();
    EXPECT_GE(kernel->stats().contextSwitches.value(), 2u);
}

TEST_F(KernelFixture, ThreadFinishLeavesCoreUsable)
{
    boot(1);
    Tick d1 = 0, d2 = 0;
    kernel->createThread("a", computeOnce(sim, 1 * msec, d1));
    sim.run();
    kernel->createThread("b", computeOnce(sim, 1 * msec, d2));
    sim.run();
    EXPECT_GT(d1, 0u);
    EXPECT_GT(d2, d1);
}

TEST_F(KernelFixture, GuestExitThatBlocksHandsTheCoreOn)
{
    // A blocks on a Notify right after its guest exit; Fair B is queued
    // behind it on the only core. The exit must dispatch B at once, as
    // a run event's resume does when the thread gives up the CPU.
    boot(1);
    StubGuest guest(sim, 100 * usec);
    sim::Notify never;
    Tick b_started = 0;
    kernel->createThread("a", guestThenWait(*kernel, guest, never));
    kernel->createThread("b", recordStart(sim, b_started));
    sim.run();
    ASSERT_GT(guest.exitAt, 0u);
    EXPECT_GE(b_started, guest.exitAt);
    EXPECT_LT(b_started, guest.exitAt + 50 * usec);
}

namespace {

/** pickCore() as a scan of every core, the rule it must keep. */
CoreId
pickCoreByFullScan(const std::vector<CoreSched>& cores, CpuMask affinity,
                   CoreId last)
{
    CoreId best = sim::invalidCore;
    std::size_t best_load = ~0ull;
    for (CoreId c = 0; c < static_cast<CoreId>(cores.size()); ++c) {
        const CoreSched& cs = cores[static_cast<size_t>(c)];
        if (!cs.online || !affinity.test(c))
            continue;
        std::size_t load = cs.fifoQueue.size() + cs.fairQueue.size() +
                           (cs.current ? 1 : 0);
        if (c == last && load <= best_load) {
            best = c;
            best_load = load;
            continue;
        }
        if (load < best_load) {
            best = c;
            best_load = load;
        }
    }
    return best;
}

} // namespace

TEST_F(KernelFixture, PickCoreMatchesFullScan)
{
    // Random machines, loads, offline cores and affinities, including
    // bits at or above the core count; loads of 0..2 make ties common,
    // and the last core is usually in the affinity.
    boot(1);
    Tick unused = 0;
    Thread& running = kernel->createThread("t", computeOnce(sim, 1, unused));
    sim::Rng rng(97);
    int last_core_ties = 0;
    for (int i = 0; i < 100000; ++i) {
        std::vector<CoreSched> cores(rng.uniformInt(1, 64));
        for (CoreSched& cs : cores) {
            cs.online = rng.chance(0.8);
            cs.fairQueue.resize(rng.uniformInt(0, 1));
            cs.fifoQueue.resize(rng.chance(0.2) ? 1 : 0);
            if (rng.chance(0.3))
                cs.current = &running;
        }
        CpuMask affinity;
        switch (rng.uniformInt(0, 3)) {
          case 0: affinity = CpuMask::single(
                      static_cast<CoreId>(rng.uniformInt(0, 63)));
                  break;
          case 1: affinity = CpuMask(rng.next64()); break;
          case 2: affinity = CpuMask(rng.next64() & rng.next64()); break;
          default: affinity = CpuMask::all(); break;
        }
        CoreId last = sim::invalidCore;
        if (rng.chance(0.8)) {
            last = static_cast<CoreId>(rng.uniformInt(0, 63));
            if (rng.chance(0.7) && !affinity.empty())
                last = __builtin_ctzll(affinity.bits());
        }
        const CoreId want = pickCoreByFullScan(cores, affinity, last);
        ASSERT_EQ(pickCore(cores, affinity, last), want)
            << "case " << i << ": " << cores.size() << " cores, affinity "
            << std::hex << affinity.bits() << std::dec << ", last " << last;
        if (want != pickCoreByFullScan(cores, affinity, sim::invalidCore))
            ++last_core_ties;
    }
    // The last core won a tie against a lower core that many times.
    EXPECT_GT(last_core_ties, 500);
}
