/**
 * @file
 * Run-ahead property (DESIGN.md §6 item 7): EventQueue::run(limit),
 * where a Compute or Delay may finish in place instead of as events,
 * and a step() loop to the same limit, where none ever does, simulate
 * the same run. Each case is built twice from one seed and driven
 * both ways; everything it can observe must agree: every tick a
 * process or IRQ handler saw, in order, the final time, the RNG's
 * next draw and the counters. Under step() every tick a process sees
 * must also be the tick of the step running it: a step is one event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "host/kernel.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "workloads/iozone.hh"
#include "workloads/kbuild.hh"
#include "workloads/nic.hh"
#include "workloads/redis.hh"
#include "workloads/remote.hh"

namespace sim = cg::sim;
namespace hw = cg::hw;
using namespace cg::workloads;
using cg::host::CpuMask;
using cg::host::Kernel;
using cg::host::SchedClass;
using sim::Proc;
using sim::Tick;

namespace {

/** How a world is driven: run(limit), or a step() loop. */
enum class Drive { Run, Step };

/**
 * Advance @p q to @p limit as run(limit) does, one way or the other.
 * The step loop puts a sentinel at @p limit, which sorts after every
 * event already queued there, and repeats with a fresh one while real
 * events ran, to pick up those scheduled at @p limit since. With
 * @p limit == maxTick it steps until the queue drains. The tick of
 * every real step goes to @p steps.
 */
void
advance(sim::EventQueue& q, Drive how, Tick limit, std::vector<Tick>& steps)
{
    if (how == Drive::Run) {
        q.run(limit);
        return;
    }
    if (limit == sim::maxTick) {
        while (q.step())
            steps.push_back(q.now());
        return;
    }
    for (;;) {
        bool fired = false;
        q.schedule(limit, [&fired] { fired = true; });
        std::size_t ran = 0;
        while (q.step() && !fired) {
            steps.push_back(q.now());
            ++ran;
        }
        if (ran == 0)
            break;
    }
}

// ------------------------------------------------ randomised kernel cases

/** One step of a scripted process. */
struct Op {
    enum Kind { Compute, Delay, Yield, Wait, Notify, Kill } kind;
    Tick amount = 0; ///< Compute, Delay
    int which = 0;   ///< Wait, Notify: index into the world's notifies
};

struct Script {
    bool thread = false; ///< a kernel thread, else a free process
    SchedClass cls = SchedClass::Fair;
    CpuMask mask = CpuMask::all();
    std::vector<Op> ops;
};

/**
 * Notifies 0-1 wake Fair threads and free processes; 2-3 wake FIFO
 * threads and are notified only by FIFO threads and free processes. A
 * Fair thread that woke a FIFO thread onto its own core would be
 * preempted while still running its coroutine, which the kernel does
 * not support in either drive.
 */
constexpr int fairNotifies = 2;
constexpr int notifyCount = 4;

struct Plan {
    int cores = 1;
    std::vector<Script> scripts;
    std::vector<std::pair<Tick, int>> ipis; ///< (when, target core)
    std::array<Tick, 2> limits{};
};

Plan
makePlan(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    // Few distinct amounts, so waits often end on the same tick: short
    // polls, exit handling, and computes longer than a timeslice.
    static constexpr std::array<Tick, 7> amounts{
        20 * sim::nsec,  20 * sim::nsec,   100 * sim::nsec, 1 * sim::usec,
        10 * sim::usec, 300 * sim::usec, 4 * sim::msec};
    auto amount = [&] {
        return amounts[static_cast<std::size_t>(
            pick(0, static_cast<int>(amounts.size()) - 1))];
    };

    Plan plan;
    plan.cores = pick(1, 3);
    const int threads = pick(1, 5);
    const int frees = pick(0, 3);
    for (int i = 0; i < threads + frees; ++i) {
        Script s;
        s.thread = i < threads;
        s.cls = s.thread && pick(0, 2) == 0 ? SchedClass::Fifo
                                            : SchedClass::Fair;
        if (s.thread) {
            s.mask = CpuMask{};
            while (s.mask.empty()) {
                for (int c = 0; c < plan.cores; ++c)
                    if (pick(0, 1))
                        s.mask.set(c);
            }
        }
        const bool fifo = s.thread && s.cls == SchedClass::Fifo;
        const bool fair = s.thread && !fifo;
        // Long runs of short computes are where run-ahead applies.
        const bool loop = pick(0, 1) == 0;
        const int n = pick(1, loop ? 60 : 20);
        for (int k = 0; k < n; ++k) {
            Op op{Op::Compute};
            const int r = pick(0, 19);
            if (loop && r < 14) {
                op.amount = pick(0, 3) ? 20 * sim::nsec : amount();
            } else if (r < 9) {
                op.amount = amount();
            } else if (r < 12) {
                op.kind = Op::Delay;
                op.amount = amount();
            } else if (r < 14 && s.thread) {
                op.kind = Op::Yield;
            } else if (r < 16) {
                op.kind = Op::Wait;
                op.which = fifo ? pick(fairNotifies, notifyCount - 1)
                                : pick(0, fairNotifies - 1);
            } else if (r < 19) {
                op.kind = Op::Notify;
                op.which = fair ? pick(0, fairNotifies - 1)
                                : pick(0, notifyCount - 1);
            } else {
                op.kind = Op::Kill;
            }
            s.ops.push_back(op);
        }
        plan.scripts.push_back(std::move(s));
    }
    const int ipis = pick(0, 20);
    for (int i = 0; i < ipis; ++i) {
        plan.ipis.emplace_back(static_cast<Tick>(pick(1, 10000)) * sim::usec,
                               pick(0, plan.cores - 1));
    }
    plan.limits[0] = static_cast<Tick>(pick(0, 2000)) * sim::usec;
    plan.limits[1] =
        plan.limits[0] + static_cast<Tick>(pick(1, 5000)) * sim::usec;
    return plan;
}

/** What a kernel world lets the test observe. */
struct Observed {
    std::vector<std::pair<int, Tick>> seen; ///< (who, tick), in order
    std::vector<std::uint64_t> draws;       ///< IRQ handlers' RNG draws
    Tick now = 0;
    std::uint64_t nextDraw = 0;
    std::vector<std::uint64_t> counters;
    std::vector<bool> done;
};

/** A host kernel on a small machine running one Plan's scripts. */
class KernelWorld
{
  public:
    KernelWorld(const Plan& plan, std::uint64_t seed) : sim_(seed)
    {
        hw::MachineConfig cfg;
        cfg.numCores = plan.cores;
        machine_ = std::make_unique<hw::Machine>(sim_, cfg);
        kernel_ = std::make_unique<Kernel>(*machine_);
        ipi_ = kernel_->allocateIpi();
        kernel_->setIpiHandler(ipi_, [this](sim::CoreId c) {
            seen_.emplace_back(1000 + c, sim_.now());
            draws_.push_back(sim_.rng().next64());
        });
        for (const auto& [when, core] : plan.ipis) {
            const int target = core;
            sim_.queue().schedule(when, [this, target] {
                kernel_->sendIpi(target, ipi_);
            });
        }
        procs_.resize(plan.scripts.size());
        for (std::size_t i = 0; i < plan.scripts.size(); ++i) {
            const Script& s = plan.scripts[i];
            const std::string name = "p" + std::to_string(i);
            Proc<void> body = script(*this, static_cast<int>(i), s.ops);
            procs_[i] = s.thread ? &kernel_->createThread(name, std::move(body),
                                                          s.cls, s.mask)
                                        .process()
                                 : &sim_.spawn(name, std::move(body));
        }
    }

    sim::EventQueue& queue() { return sim_.queue(); }

    Observed
    observe()
    {
        Observed o;
        o.seen = seen_;
        o.draws = draws_;
        o.now = sim_.now();
        sim::Rng copy = sim_.rng();
        o.nextDraw = copy.next64();
        const auto& ks = kernel_->stats();
        o.counters = {ks.contextSwitches.value(), ks.migrations.value(),
                      ks.ipis.value(), ks.irqs.value()};
        for (const sim::Process* p : procs_)
            o.done.push_back(p->done());
        return o;
    }

  private:
    static Proc<void>
    script(KernelWorld& w, int id, const std::vector<Op>& ops)
    {
        for (const Op& op : ops) {
            switch (op.kind) {
              case Op::Compute:
                co_await sim::Compute{op.amount};
                break;
              case Op::Delay:
                co_await sim::Delay{op.amount};
                break;
              case Op::Yield:
                co_await w.kernel_->yield();
                break;
              case Op::Wait:
                co_await w.notifies_[static_cast<std::size_t>(op.which)]
                    .wait();
                break;
              case Op::Notify:
                w.notifies_[static_cast<std::size_t>(op.which)].notifyAll();
                break;
              case Op::Kill:
                // Requested from its own call chain: takes effect at
                // the next suspension.
                w.procs_[static_cast<std::size_t>(id)]->kill();
                break;
            }
            w.seen_.emplace_back(id, w.sim_.now());
        }
    }

    // Destroyed bottom-up: the kernel kills its threads first.
    sim::Simulation sim_;
    std::array<sim::Notify, notifyCount> notifies_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<Kernel> kernel_;
    int ipi_ = 0;
    std::vector<sim::Process*> procs_;
    std::vector<std::pair<int, Tick>> seen_;
    std::vector<std::uint64_t> draws_;
};

void
expectSame(const Observed& ran, const Observed& stepped)
{
    EXPECT_EQ(ran.seen, stepped.seen);
    EXPECT_EQ(ran.draws, stepped.draws);
    EXPECT_EQ(ran.now, stepped.now);
    EXPECT_EQ(ran.nextDraw, stepped.nextDraw);
    EXPECT_EQ(ran.counters, stepped.counters);
    EXPECT_EQ(ran.done, stepped.done);
}

// ------------------------------------------------------ whole testbeds

/** Everything a testbed case reports, in one comparable string. */
std::string
fingerprint(Testbed& bed)
{
    std::ostringstream os;
    sim::Rng copy = bed.sim().rng();
    os << "now " << bed.sim().now() << "\nnext " << copy.next64() << "\n"
       << bed.sim().stats().dumpText();
    return os.str();
}

/** A fig. 9 point: shared-core 4 KiB O_DIRECT reads. */
std::string
ioZoneRead(Drive how)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("io", 4);
    bed.addVirtioBlk(vm);
    IoZone::Config c;
    c.recordBytes = 4096;
    c.fileBytes = 64 * c.recordBytes;
    IoZone io(bed, vm, c);
    io.install();
    bed.spawnStart();
    std::vector<Tick> steps;
    std::ostringstream os;
    for (Tick limit : {2 * sim::msec, 120 * sim::sec}) {
        advance(bed.sim().queue(), how, limit, steps);
        const IoZone::Result r = io.result();
        os << r.ops << " " << r.elapsed << " " << r.throughputMBps << "\n"
           << fingerprint(bed);
    }
    EXPECT_EQ(io.result().ops, 64);
    return os.str();
}

/** A fig. 10 point: a shared-core build on 4 cores. */
std::string
kernelBuild(Drive how)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("kb", 4);
    bed.addVirtioBlk(vm);
    KernelBuild::Config c;
    c.jobs = 8;
    c.compilePerJob = 5 * sim::msec;
    c.linkCompute = 10 * sim::msec;
    c.linkReadBytes = 256 << 10;
    c.linkWriteBytes = 256 << 10;
    KernelBuild kb(bed, vm, c);
    kb.install();
    bed.spawnStart();
    std::vector<Tick> steps;
    std::ostringstream os;
    for (Tick limit : {12 * sim::msec, 600 * sim::sec}) {
        advance(bed.sim().queue(), how, limit, steps);
        const KernelBuild::Result r = kb.result();
        os << r.buildTime << " " << r.jobsDone << " " << r.finished << "\n"
           << fingerprint(bed);
    }
    EXPECT_TRUE(kb.result().finished);
    return os.str();
}

/** A scaled-down kv-openloop point: gapped, open-loop GETs. */
std::string
gappedKv(Drive how, std::vector<double>& latencies)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("redis", 4);
    Testbed::MqNicOptions opt;
    opt.queues = 2;
    bed.addMqNic(vm, opt);
    MqGuestNic nic(*vm.mqnet);
    RemoteHost clients(bed.sim(), bed.fabric(),
                       bed.machine().costs().remoteStack, 4);
    RedisOpenLoop::Config c;
    c.offeredKrps = 20.0;
    c.duration = 20 * sim::msec;
    c.serverThreads = 2;
    RedisOpenLoop ol(bed, vm, nic, clients, c);
    ol.install();
    bed.spawnStart();
    std::vector<Tick> steps;
    std::ostringstream os;
    for (Tick limit : {8 * sim::msec, c.duration + 10 * sim::sec}) {
        advance(bed.sim().queue(), how, limit, steps);
        const RedisOpenLoop::Result r = ol.result();
        os << r.sent << " " << r.completed << " " << r.maxInFlight << " "
           << r.vmExits << " " << r.irqExits << "\n"
           << fingerprint(bed);
    }
    latencies = ol.latencies().dist().samples();
    EXPECT_GT(ol.result().completed, 0u);
    return os.str();
}

} // namespace

TEST(RunAheadProperty, RunAndStepAgreeOnRandomKernelScripts)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        const Plan plan = makePlan(seed);
        KernelWorld ran(plan, seed), stepped(plan, seed);
        std::vector<Tick> unused, steps;
        for (Tick limit : {plan.limits[0], plan.limits[1], sim::maxTick}) {
            advance(ran.queue(), Drive::Run, limit, unused);
            advance(stepped.queue(), Drive::Step, limit, steps);
            expectSame(ran.observe(), stepped.observe());
        }
        for (const auto& [who, tick] : stepped.observe().seen) {
            EXPECT_TRUE(std::binary_search(steps.begin(), steps.end(), tick))
                << "process " << who << " saw tick " << tick
                << " inside a step at another tick";
        }
        if (::testing::Test::HasFailure())
            break;
    }
}

TEST(RunAheadProperty, SharedCoreIoZoneReadAgrees)
{
    EXPECT_EQ(ioZoneRead(Drive::Run), ioZoneRead(Drive::Step));
}

TEST(RunAheadProperty, SharedCoreKernelBuildAgrees)
{
    EXPECT_EQ(kernelBuild(Drive::Run), kernelBuild(Drive::Step));
}

TEST(RunAheadProperty, GappedKvPointAgrees)
{
    std::vector<double> ran, stepped;
    EXPECT_EQ(gappedKv(Drive::Run, ran), gappedKv(Drive::Step, stepped));
    EXPECT_EQ(ran, stepped);
    EXPECT_FALSE(ran.empty());
}
