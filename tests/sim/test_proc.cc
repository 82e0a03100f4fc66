/**
 * @file
 * Unit tests for coroutine processes and the free dispatcher.
 *
 * Note the style: coroutines are named functions with parameters, never
 * capturing lambdas (the closure would be destroyed while the coroutine
 * frame still references it).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/sync.hh"

using namespace cg::sim;

namespace {

Proc<void>
sleeper(Simulation& sim, Tick d, std::vector<Tick>& log)
{
    co_await Delay{d};
    log.push_back(sim.now());
}

Proc<int>
addLater(int a, int b)
{
    co_await Delay{1 * nsec};
    co_return a + b;
}

Proc<void>
addIntoOut(int& out)
{
    out = co_await addLater(2, 3);
}

Proc<int>
countDown(int n)
{
    if (n == 0)
        co_return 0;
    co_await Delay{1 * nsec};
    int sub = co_await countDown(n - 1);
    co_return sub + 1;
}

Proc<void>
runCountDown(int& result)
{
    result = co_await countDown(50);
}

Proc<void>
computeThenRecord(Simulation& sim, Tick amount, Tick& done)
{
    co_await Compute{amount};
    done = sim.now();
}

Proc<void>
sleepOnce(Tick d)
{
    co_await Delay{d};
}

Proc<void>
joinThenRecord(Simulation& sim, Process& target, Tick& when, bool& joined)
{
    co_await join(target);
    when = sim.now();
    joined = true;
}

Proc<void>
sleepThenFlag(Tick d, bool& flag)
{
    co_await Delay{d};
    flag = true;
}

Proc<void>
waitNotifyThenFlag(Notify& n, bool& flag)
{
    co_await n.wait();
    flag = true;
}

Proc<void>
thrower()
{
    co_await Delay{1 * nsec};
    throw std::runtime_error("boom");
}

Proc<void>
catcher(bool& caught)
{
    try {
        co_await thrower();
    } catch (const std::runtime_error& e) {
        caught = std::string(e.what()) == "boom";
    }
}

Proc<void>
delayAndCount(Tick d, int& counter)
{
    co_await Delay{d};
    ++counter;
}

Proc<void>
pushNow(std::vector<int>& log, int v)
{
    log.push_back(v);
    co_return;
}

/** Computes @p before chunks, requests its own kill, then tries one
 * more chunk; @p after counts what ran past that request. */
Proc<void>
selfKiller(Process*& self, int before, int& after)
{
    for (int i = 0; i < before; ++i)
        co_await Compute{10 * nsec};
    self->kill();
    co_await Compute{10 * nsec};
    ++after;
}

Proc<void>
spawnerBody(Simulation& sim, std::vector<int>& log)
{
    log.push_back(1);
    sim.spawn("inner", pushNow(log, 2));
    co_await Delay{1 * nsec};
    log.push_back(3);
}

} // namespace

TEST(Proc, DelayAdvancesSimulatedTime)
{
    Simulation sim;
    std::vector<Tick> log;
    sim.spawn("s", sleeper(sim, 100 * nsec, log));
    sim.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 100 * nsec);
}

TEST(Proc, ZeroDelayDoesNotSuspend)
{
    Simulation sim;
    std::vector<Tick> log;
    sim.spawn("s", sleeper(sim, 0, log));
    sim.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 0u);
}

TEST(Proc, ProcessesInterleaveByTime)
{
    Simulation sim;
    std::vector<Tick> log;
    sim.spawn("a", sleeper(sim, 30 * nsec, log));
    sim.spawn("b", sleeper(sim, 10 * nsec, log));
    sim.spawn("c", sleeper(sim, 20 * nsec, log));
    sim.run();
    EXPECT_EQ(log, (std::vector<Tick>{10 * nsec, 20 * nsec, 30 * nsec}));
}

TEST(Proc, NestedProcReturnsValue)
{
    Simulation sim;
    int result = 0;
    sim.spawn("t", addIntoOut(result));
    sim.run();
    EXPECT_EQ(result, 5);
}

TEST(Proc, DeeplyNestedSubProcs)
{
    Simulation sim;
    int result = -1;
    sim.spawn("t", runCountDown(result));
    Tick end = sim.run();
    EXPECT_EQ(result, 50);
    EXPECT_EQ(end, 50 * nsec);
}

TEST(Proc, ComputeOnFreeDispatcherActsLikeDelay)
{
    Simulation sim;
    Tick done = 0;
    sim.spawn("t", computeThenRecord(sim, 7 * usec, done));
    sim.run();
    EXPECT_EQ(done, 7 * usec);
}

TEST(Proc, ProcessStateTransitions)
{
    Simulation sim;
    Process& p = sim.spawn("t", sleepOnce(10 * nsec));
    EXPECT_FALSE(p.done());
    sim.run();
    EXPECT_TRUE(p.done());
    EXPECT_EQ(p.state(), Process::State::Done);
}

TEST(Proc, JoinWaitsForCompletion)
{
    Simulation sim;
    Tick join_time = 0;
    bool joined = false;
    Process& worker = sim.spawn("w", sleepOnce(42 * nsec));
    sim.spawn("j", joinThenRecord(sim, worker, join_time, joined));
    sim.run();
    EXPECT_TRUE(joined);
    EXPECT_EQ(join_time, 42 * nsec);
}

TEST(Proc, JoinOnFinishedProcessReturnsImmediately)
{
    Simulation sim;
    Process& worker = sim.spawn("w", sleepOnce(0));
    sim.run();
    EXPECT_TRUE(worker.done());
    Tick when = 0;
    bool joined = false;
    sim.spawn("j", joinThenRecord(sim, worker, when, joined));
    sim.run();
    EXPECT_TRUE(joined);
}

TEST(Proc, KillCancelsPendingWakeup)
{
    Simulation sim;
    bool finished = false;
    Process& p = sim.spawn("t", sleepThenFlag(1 * sec, finished));
    sim.runFor(1 * msec);
    p.kill();
    sim.run();
    EXPECT_FALSE(finished);
    EXPECT_TRUE(p.done());
    EXPECT_TRUE(sim.queue().empty());
}

TEST(Proc, KillUnlinksFromWaitQueue)
{
    Simulation sim;
    Notify n;
    bool resumed = false;
    Process& p = sim.spawn("t", waitNotifyThenFlag(n, resumed));
    sim.runFor(1 * nsec);
    EXPECT_EQ(n.waiterCount(), 1u);
    p.kill();
    EXPECT_EQ(n.waiterCount(), 0u);
    n.notifyAll();
    sim.run();
    EXPECT_FALSE(resumed);
}

TEST(Proc, KillWakesJoiners)
{
    Simulation sim;
    Process& worker = sim.spawn("w", sleepOnce(1 * sec));
    Tick when = 0;
    bool joined = false;
    sim.spawn("j", joinThenRecord(sim, worker, when, joined));
    sim.runFor(1 * msec);
    worker.kill();
    sim.run();
    EXPECT_TRUE(joined);
}

TEST(Proc, ExceptionPropagatesAcrossAwait)
{
    Simulation sim;
    bool caught = false;
    sim.spawn("t", catcher(caught));
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Proc, ManyProcessesScale)
{
    Simulation sim;
    int done_count = 0;
    for (int i = 0; i < 1000; ++i) {
        sim.spawn(strFormat("p%d", i),
                  delayAndCount(static_cast<Tick>(i) * nsec, done_count));
    }
    sim.run();
    EXPECT_EQ(done_count, 1000);
}

TEST(Proc, SpawnFromInsideProcess)
{
    Simulation sim;
    std::vector<int> log;
    sim.spawn("outer", spawnerBody(sim, log));
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Proc, SelfKillStopsAtTheNextComputeUnderRunAhead)
{
    // Nothing else is pending, so each Compute could finish in place
    // under run(); the kill request must still end the process at the
    // Compute after it.
    Simulation sim;
    Process* self = nullptr;
    int after = 0;
    self = &sim.spawn("k", selfKiller(self, 5, after));
    sim.run(1 * sec);
    EXPECT_TRUE(self->done());
    EXPECT_EQ(after, 0);
    EXPECT_EQ(sim.now(), 1 * sec);
    EXPECT_TRUE(sim.queue().empty());
}
