/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernel itself
 * (wall-clock performance of the event queue, coroutine processes, and
 * a full testbed boot). These bound how long the table/figure
 * harnesses take, and catch regressions in the simulator's hot paths.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "hw/uarch.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "workloads/coremark.hh"

namespace sim = cg::sim;
using namespace cg::workloads;

namespace {

void
eventQueueChurn(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i) {
            q.schedule(static_cast<sim::Tick>(i) * sim::nsec,
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueChurn)->Arg(1000)->Arg(100000);

/** Schedule + cancel half the events: exercises the O(1) invalidation
 * path and the stale-entry skipping on pop. */
void
eventQueueCancelChurn(benchmark::State& state)
{
    std::vector<sim::EventId> ids(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i) {
            ids[static_cast<std::size_t>(i)] =
                q.schedule(static_cast<sim::Tick>(i) * sim::nsec,
                           [&sink] { ++sink; });
        }
        for (int i = 0; i < state.range(0); i += 2)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueCancelChurn)->Arg(100000);

/** Out-of-order bulk load: every push sorts before every pending
 * entry. The first few shift into the sorted run's front; the rest find
 * no consumed gap and a long suffix there, so they take the heap. */
void
eventQueueReverseChurn(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = state.range(0); i > 0; --i) {
            q.schedule(static_cast<sim::Tick>(i) * sim::nsec,
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueReverseChurn)->Arg(100000);

/**
 * Steady churn shaped like the benches' measured queue traffic
 * (DESIGN.md §6 item 3): 40 chains stay live and each event schedules
 * its chain's successor — a quarter at zero delay, most of the rest a
 * few ns out (93% of successors rank ≤ 1 among pending entries), and
 * one in twenty 10-20 us out among the parked chains. Every fourth
 * event also replaces a far-future guard event, as each KVM_RUN
 * schedules a run event 3600 s ahead that its exit cancels.
 */
struct SteadyChurn {
    sim::EventQueue q;
    std::uint64_t rng;
    std::int64_t budget;
    std::uint64_t fired = 0;
    sim::EventId guard = sim::invalidEventId;

    void
    fire()
    {
        if ((++fired & 3) == 0) {
            q.cancel(guard);
            guard = q.scheduleIn(3600 * sim::sec, [] {});
        }
        if (--budget < 0)
            return;
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = rng >> 33;
        const std::uint64_t kind = r % 20;
        sim::Tick delay = 0; // kind < 5
        if (kind == 19)
            delay = (10000 + r / 20 % 10000) * sim::nsec;
        else if (kind >= 5)
            delay = (1 + r / 20 % 16) * sim::nsec;
        q.scheduleIn(delay, [this] { fire(); });
    }
};

void
eventQueueSteadyChurn(benchmark::State& state)
{
    constexpr int chains = 40;
    for (auto _ : state) {
        SteadyChurn c{{}, static_cast<std::uint64_t>(state.range(0)),
                      state.range(0) - chains};
        for (int i = 0; i < chains; ++i) {
            c.q.schedule(static_cast<sim::Tick>(i) * 500 * sim::nsec,
                         [&c] { c.fire(); });
        }
        c.q.run();
        benchmark::DoNotOptimize(c.fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueSteadyChurn)->Arg(100000);

/** The six per-core structure touches CoreUarch::run() performs on
 * every scheduling quantum, alternating domains as context switches
 * do. */
void
taggedStructureTouch(benchmark::State& state)
{
    cg::hw::Costs costs;
    cg::hw::CoreUarch core(costs);
    sim::DomainId d = sim::firstVmDomain;
    for (auto _ : state) {
        core.run(d, 4096);
        benchmark::DoNotOptimize(core.l1d.used());
        d = d == sim::firstVmDomain ? sim::hostDomain
                                    : sim::firstVmDomain;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(taggedStructureTouch);

sim::Proc<void>
pingPong(sim::Channel<int>& a, sim::Channel<int>& b, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        a.send(i);
        (void)co_await b.recv();
    }
}

sim::Proc<void>
echo(sim::Channel<int>& a, sim::Channel<int>& b, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        int v = co_await a.recv();
        b.send(v);
    }
}

void
coroutineChannelPingPong(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulation s;
        sim::Channel<int> a, b;
        s.spawn("ping", pingPong(a, b, static_cast<int>(state.range(0))));
        s.spawn("pong", echo(a, b, static_cast<int>(state.range(0))));
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(coroutineChannelPingPong)->Arg(10000);

std::uint64_t
bootOnce(RunMode mode, std::uint64_t seed)
{
    Testbed::Config cfg;
    cfg.numCores = 16;
    cfg.mode = mode;
    cfg.seed = seed;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("boot", 16);
    CoreMarkPro::Config wcfg;
    wcfg.duration = 50 * sim::msec;
    CoreMarkPro cm(bed, vm, wcfg);
    cm.install();
    bed.spawnStart();
    bed.run(2 * sim::sec);
    return cm.result().iterations;
}

void
coreGappedBoot(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(bootOnce(RunMode::CoreGapped,
                                          0xc0ffee));
    }
}
BENCHMARK(coreGappedBoot);

/** Eight independent boots fanned across a ParallelRunner: the
 * wall-clock shape of the converted fig6/fig7/table4 sweeps. */
void
parallelSweepBoot(benchmark::State& state)
{
    const auto seeds =
        sim::ParallelRunner::deriveSeeds(0xc0ffee, 8);
    for (auto _ : state) {
        const auto iters =
            sim::ParallelRunner::mapIndexed<std::uint64_t>(
                seeds.size(), [&](std::size_t i) {
                    return bootOnce(RunMode::CoreGapped, seeds[i]);
                });
        benchmark::DoNotOptimize(iters.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(parallelSweepBoot)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
