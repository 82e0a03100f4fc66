#include "perfbench/driver.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace sim = cg::sim;

namespace {

/** Tracer ring size for traced runs; drained when half full, so no
 * tracepoint is ever overwritten. */
constexpr std::size_t traceCapacity = std::size_t{1} << 16;

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string& s, const char* suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** A Counter or raw value row as a number (0 for other kinds). */
double
scalar(const sim::StatRegistry& reg, const std::string& name)
{
    const sim::StatRegistry::StatRef r = reg.find(name);
    if (const sim::Counter* c = r.counter())
        return static_cast<double>(c->value());
    if (const std::uint64_t* v = r.value())
        return static_cast<double>(*v);
    return 0.0;
}

void
appendLatencyUs(const sim::StatRegistry& reg, const std::string& name,
                std::vector<double>& out)
{
    if (const sim::LatencyStat* l = reg.latency(name)) {
        for (double ticks : l->dist().samples())
            out.push_back(sim::ticksToUs(ticks));
    }
}

bool
is(const char* a, const char* b)
{
    return a && std::strcmp(a, b) == 0;
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
parseWorkload(const std::string& name, Workload& out)
{
    if (name == "blk-sync")
        out = Workload::BlkSync;
    else if (name == "kv-openloop")
        out = Workload::KvOpenLoop;
    else if (name == "cvm-churn")
        out = Workload::CvmChurn;
    else
        return false;
    return true;
}

std::uint64_t
testbedSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finaliser: neighbouring seeds give unrelated streams.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
percentile(const std::vector<double>& v, double p)
{
    sim::Distribution d;
    for (double x : v)
        d.sample(x);
    return d.percentile(p);
}

// --------------------------------------------------------------- SpanFold

void
SpanFold::feed(const std::vector<sim::Tracer::Event>& events,
               LayerTally& tally)
{
    std::vector<double>& rec = tally.samplesUs["rmm.rec_run_us"];
    std::vector<double>& ring =
        tally.samplesUs["core.doorbell_ring_to_wake_us"];
    std::vector<double>& rpc =
        tally.samplesUs["core.syncrpc_post_to_response_us"];
    for (const sim::Tracer::Event& e : events) {
        if (is(e.name, "rec-run")) {
            if (e.phase == 'B') {
                recOpen_[e.tid] = e.ts;
            } else if (e.phase == 'E') {
                auto it = recOpen_.find(e.tid);
                if (it != recOpen_.end()) {
                    rec.push_back(sim::ticksToUs(e.ts - it->second));
                    recOpen_.erase(it);
                }
            }
        } else if (is(e.name, "doorbell-ring")) {
            rings_[e.tid].push_back(e.ts);
        } else if (is(e.name, "doorbell-wake")) {
            // One wake serves every ring pending on that host core
            // (coalesced SGIs): time it from the oldest.
            std::deque<Tick>& q = rings_[e.tid];
            if (!q.empty()) {
                ring.push_back(sim::ticksToUs(e.ts - q.front()));
                q.clear();
            }
        } else if (is(e.name, "syncrpc-post")) {
            posts_[e.tid].push_back(e.ts);
        } else if (is(e.name, "syncrpc-response")) {
            std::deque<Tick>& q = posts_[e.tid];
            if (!q.empty()) {
                rpc.push_back(sim::ticksToUs(e.ts - q.front()));
                q.pop_front();
            }
        }
    }
}

// -------------------------------------------------------------- SimDriver

SimDriver::SimDriver(cg::workloads::Testbed& bed, bool traced,
                     LayerTally& tally)
    : bed_(bed), traced_(traced), tally_(tally)
{
    if (traced_) {
        bed_.sim().tracer().enable(traceCapacity);
        drainAt_ = traceCapacity / 2;
    }
}

void
SimDriver::afterStep(std::size_t sentinels)
{
    sim::EventQueue& q = bed_.sim().queue();
    ++tally_.events;
    if (tailStarted_) {
        ++tally_.tailEvents;
    } else if (windowClosed_ || q.now() >= windowEnd_) {
        tailStarted_ = true;
        tailStart_ = Clock::now();
    }
    const std::uint64_t pending = q.pending() - sentinels;
    tally_.peakPending = std::max(tally_.peakPending, pending);
    if (bed_.sim().tracer().size() >= drainAt_)
        drainTracer();
}

void
SimDriver::accountSegment(Clock::time_point t0)
{
    const Clock::time_point t1 = Clock::now();
    tally_.stepHostS += std::chrono::duration<double>(t1 - t0).count();
    if (tailStarted_) {
        tally_.tailHostS += std::chrono::duration<double>(
                                t1 - std::max(t0, tailStart_))
                                .count();
    }
}

bool
SimDriver::runUntilOpen(sim::Gate& g, Tick limit)
{
    sim::EventQueue& q = bed_.sim().queue();
    const Clock::time_point t0 = Clock::now();
    while (!g.isOpen() && q.now() <= limit && q.step()) {
        if (traced_)
            afterStep(0);
    }
    if (traced_)
        accountSegment(t0);
    return g.isOpen();
}

void
SimDriver::runTo(Tick limit)
{
    CG_ASSERT(limit != sim::maxTick, "runTo needs a finite limit");
    if (!traced_) {
        bed_.run(limit);
        return;
    }
    // EventQueue::run(limit) runs every event at or before limit,
    // including ones scheduled at limit while it runs. A sentinel
    // scheduled at limit stops the step loop after everything queued
    // before it; a fresh sentinel then picks up anything scheduled at
    // limit since. When a sentinel is the very next event, nothing at
    // or before limit is left. Sentinels only consume sequence numbers
    // after every real event already queued, so the real events keep
    // their relative order.
    sim::EventQueue& q = bed_.sim().queue();
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        bool fired = false;
        q.schedule(limit, [&fired] { fired = true; });
        std::uint64_t ran = 0;
        for (;;) {
            q.step();
            if (fired)
                break;
            ++ran;
            afterStep(1);
        }
        if (ran == 0)
            break;
    }
    accountSegment(t0);
}

void
SimDriver::drainTracer()
{
    sim::Tracer& tr = bed_.sim().tracer();
    spans_.feed(tr.events(), tally_);
    tr.enable(traceCapacity); // empties the ring
}

void
SimDriver::finish()
{
    if (!traced_)
        return;
    drainTracer();
    bed_.sim().tracer().disable();
    const sim::StatRegistry& reg = bed_.sim().stats();
    foldTestbedStats(reg, tally_);
    for (const auto& v : bed_.vms())
        foldVmStats(reg, v->vm->name(), tally_);
}

// ------------------------------------------------------------ stat folds

void
foldVmStats(const sim::StatRegistry& reg, const std::string& vm,
            LayerTally& t)
{
    const std::string kvm = "kvm." + vm + ".";
    const std::string guest = "guest." + vm + ".";
    const std::string gapped = "gapped." + vm + ".";
    const std::string mq = "mqnet." + vm + ".";
    auto& c = t.counts;
    for (const std::string& n : reg.names()) {
        if (startsWith(n, kvm)) {
            const std::string leaf = n.substr(kvm.size());
            if (leaf == "exits")
                c["vmm.kvm_exits"] += scalar(reg, n);
            else if (leaf == "mmioExits")
                c["vmm.mmio_exits"] += scalar(reg, n);
            else if (leaf == "injections")
                c["vmm.injections"] += scalar(reg, n);
        } else if (startsWith(n, guest)) {
            if (endsWith(n, ".ticksHandled"))
                c["guest.ticks"] += scalar(reg, n);
            else if (endsWith(n, ".virqsHandled"))
                c["guest.virqs"] += scalar(reg, n);
            else if (endsWith(n, ".exitsGenerated"))
                c["guest.exits_generated"] += scalar(reg, n);
        } else if (startsWith(n, gapped)) {
            const std::string leaf = n.substr(gapped.size());
            if (leaf == "syncRpcServed")
                c["core.sync_rpc_served"] += scalar(reg, n);
            else if (leaf == "wakeLatency")
                appendLatencyUs(reg, n, t.samplesUs["core.wake_latency_us"]);
            else if (leaf == "runCallRtt")
                appendLatencyUs(reg, n, t.samplesUs["core.run_call_rtt_us"]);
        } else if (startsWith(n, mq)) {
            if (n == mq + "kick-exits") {
                c["vmm.kick_exits"] += scalar(reg, n);
            } else if (endsWith(n, ".kicks")) {
                c["vmm.kicks"] += scalar(reg, n);
            } else if (endsWith(n, ".irqs")) {
                c["vmm.irqs"] += scalar(reg, n);
            } else if (endsWith(n, ".kick-batch")) {
                if (const sim::Accumulator* a = reg.accumulator(n)) {
                    c["vmm.kick_batch_sum"] += a->sum();
                    c["vmm.kick_batch_n"] += static_cast<double>(a->count());
                }
            }
        }
    }
}

void
foldTestbedStats(const sim::StatRegistry& reg, LayerTally& t)
{
    static const std::pair<const char*, const char*> rows[] = {
        {"host.contextSwitches", "host.context_switches"},
        {"host.ipis", "host.ipis"},
        {"rmm.rmiCalls", "rmm.rmi_calls"},
        {"rmm.exitsToHost", "rmm.exits_to_host"},
        {"rmm.delegatedTimerEvents", "rmm.delegated_timer_events"},
        {"rmm.localWfiWaits", "rmm.local_wfi_waits"},
        {"rmm.migrationGranulesCopied", "rmm.migration_granules_copied"},
        {"rmm.migrationsStarted", "rmm.migrations_started"},
        {"rmm.migrationsCommitted", "rmm.migrations_committed"},
        {"rmm.migrationsAborted", "rmm.migrations_aborted"},
        {"hw.gic.delivered", "hw.gic_delivered"},
        {"doorbell.rings", "core.doorbell_rings"},
    };
    for (const auto& [stat, stem] : rows)
        t.counts[stem] += scalar(reg, stat);
}

// ------------------------------------------------------------- dispatch

RunResult
runWorkload(Workload w, std::uint64_t seed, bool traced)
{
    RunResult r;
    switch (w) {
      case Workload::BlkSync:
        r = runBlkSync(seed, traced);
        break;
      case Workload::KvOpenLoop:
        r = runKvOpenLoop(seed, traced);
        break;
      case Workload::CvmChurn:
        r = runCvmChurn(seed, traced);
        break;
    }
    // The parts alone: the speed probes between them are not the
    // workload's.
    r.wallS = std::accumulate(r.partWallS.begin(), r.partWallS.end(), 0.0);
    return r;
}

} // namespace perfbench
