#include "workloads/redis.hh"

#include "sim/simulation.hh"

namespace cg::workloads {

using sim::Compute;

const char*
redisOpName(RedisOp op)
{
    switch (op) {
      case RedisOp::Set:
        return "SET";
      case RedisOp::Get:
        return "GET";
      case RedisOp::Lrange100:
        return "LRANGE 100";
    }
    return "?";
}

RedisBenchmark::RedisBenchmark(Testbed& bed, VmInstance& vm,
                               GuestNic& nic, RemoteHost& clients,
                               Config cfg)
    : bed_(bed),
      vm_(vm),
      nic_(nic),
      remote_(clients),
      cfg_(cfg),
      sentAt_(static_cast<size_t>(cfg.clients), 0)
{}

std::uint64_t
RedisBenchmark::requestBytes() const
{
    switch (cfg_.op) {
      case RedisOp::Set:
        return 64 + cfg_.valueBytes;
      case RedisOp::Get:
        return 64;
      case RedisOp::Lrange100:
        return 72;
    }
    return 64;
}

std::uint64_t
RedisBenchmark::responseBytes() const
{
    switch (cfg_.op) {
      case RedisOp::Set:
        return 8; // +OK
      case RedisOp::Get:
        return 16 + cfg_.valueBytes;
      case RedisOp::Lrange100:
        return 100 * cfg_.valueBytes + 400;
    }
    return 8;
}

Tick
RedisBenchmark::serviceTime() const
{
    switch (cfg_.op) {
      case RedisOp::Set:
        return cfg_.setService;
      case RedisOp::Get:
        return cfg_.getService;
      case RedisOp::Lrange100:
        return cfg_.lrangeService;
    }
    return cfg_.getService;
}

void
RedisBenchmark::install()
{
    vm_.vcpu(0).startGuest(
        sim::strFormat("%s/redis-server", vm_.vm->name().c_str()),
        server());
    remote_.setHandler(
        [this](const vmm::Packet& p) { onClientRx(p); });
}

sim::Proc<void>
RedisBenchmark::server()
{
    co_await bed_.started().wait();
    guest::VCpu& v = vm_.vcpu(0);
    sim::Simulation& s = bed_.sim();
    // Kick the client fleet off, now that the server is listening.
    measureStart_ = s.now();
    measureEnd_ = measureStart_ + cfg_.duration;
    if (!clientsStarted_) {
        clientsStarted_ = true;
        for (int c = 0; c < cfg_.clients; ++c)
            clientSend(c);
    }
    for (;;) {
        vmm::Packet req = co_await nic_.recv(v);
        Tick service = s.rng().jittered(serviceTime(), 0.08);
        if (s.rng().chance(cfg_.slowOpProbability)) {
            // Housekeeping strikes: rehash step, expiry cycle, etc.
            service = static_cast<Tick>(
                static_cast<double>(service) * cfg_.slowOpFactor);
        }
        co_await Compute{service};
        co_await nic_.send(v, responseBytes(), remote_.port(),
                           req.cookie);
        if (s.now() >= measureEnd_)
            break;
    }
    co_await v.shutdown();
}

void
RedisBenchmark::clientSend(int client_id)
{
    sentAt_[static_cast<size_t>(client_id)] = bed_.sim().now();
    remote_.send(nic_.port(), requestBytes(),
                 static_cast<std::uint64_t>(client_id));
}

void
RedisBenchmark::clientSendLater(int client_id)
{
    if (cfg_.clientThink == 0) {
        clientSend(client_id);
        return;
    }
    const Tick think = static_cast<Tick>(bed_.sim().rng().exponential(
        static_cast<double>(cfg_.clientThink)));
    bed_.sim().queue().scheduleIn(think, [this, client_id] {
        if (bed_.sim().now() < measureEnd_)
            clientSend(client_id);
    });
}

void
RedisBenchmark::onClientRx(const vmm::Packet& pkt)
{
    const int client = static_cast<int>(pkt.cookie);
    if (client < 0 || client >= cfg_.clients)
        return;
    const Tick now = bed_.sim().now();
    const Tick sent = sentAt_[static_cast<size_t>(client)];
    if (sent > 0) {
        latencies_.sample(static_cast<double>(now - sent));
        ++completed_;
    }
    if (now < measureEnd_)
        clientSendLater(client);
}

RedisBenchmark::Result
RedisBenchmark::result() const
{
    Result r;
    r.completed = completed_;
    const Tick window =
        measureEnd_ > measureStart_ ? measureEnd_ - measureStart_ : 0;
    if (window > 0) {
        r.throughputKrps = static_cast<double>(completed_) /
                           sim::toSec(window) / 1e3;
    }
    if (latencies_.count() > 0) {
        r.meanMs = sim::ticksToMs(latencies_.mean());
        r.p95Ms = sim::ticksToMs(latencies_.percentile(95));
        r.p99Ms = sim::ticksToMs(latencies_.percentile(99));
    }
    return r;
}

// ------------------------------------------------------- RedisOpenLoop

RedisOpenLoop::RedisOpenLoop(Testbed& bed, VmInstance& vm,
                             GuestNic& nic, RemoteHost& remote,
                             Config cfg)
    : bed_(bed), vm_(vm), nic_(nic), remote_(remote), cfg_(cfg)
{
    cfg_.serverThreads = std::min(
        {cfg_.serverThreads, vm_.numVcpus(), nic_.numQueues()});
    if (cfg_.serverThreads < 1)
        cfg_.serverThreads = 1;
}

std::uint64_t
RedisOpenLoop::requestBytes() const
{
    switch (cfg_.op) {
      case RedisOp::Set:
        return 64 + cfg_.valueBytes;
      case RedisOp::Get:
        return 64;
      case RedisOp::Lrange100:
        return 72;
    }
    return 64;
}

std::uint64_t
RedisOpenLoop::responseBytes() const
{
    switch (cfg_.op) {
      case RedisOp::Set:
        return 8;
      case RedisOp::Get:
        return 16 + cfg_.valueBytes;
      case RedisOp::Lrange100:
        return 100 * cfg_.valueBytes + 400;
    }
    return 8;
}

Tick
RedisOpenLoop::serviceTime() const
{
    switch (cfg_.op) {
      case RedisOp::Set:
        return cfg_.setService;
      case RedisOp::Get:
        return cfg_.getService;
      case RedisOp::Lrange100:
        return cfg_.lrangeService;
    }
    return cfg_.getService;
}

void
RedisOpenLoop::install()
{
    for (int t = 0; t < cfg_.serverThreads; ++t) {
        vm_.vcpu(t).startGuest(
            sim::strFormat("%s/redis-srv%d", vm_.vm->name().c_str(),
                           t),
            serverThread(t));
    }
    remote_.setHandler(
        [this](const vmm::Packet& p) { onClientRx(p); });
}

void
RedisOpenLoop::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, sim::strFormat(
        "openloop.%s", vm_.vm->name().c_str()));
    statGroup_.add("latency", latencies_);
    statGroup_.add("sent", sent_);
    statGroup_.add("completed", completed_);
    statGroup_.add("inFlightDepth", inFlightDepth_);
}

void
RedisOpenLoop::scheduleNextArrival()
{
    // Open loop: exponential inter-arrival gaps at the offered rate,
    // independent of completions — queueing delay lands in the
    // latency tail instead of throttling the arrival process.
    const double mean_gap_ticks =
        static_cast<double>(sim::sec) / (cfg_.offeredKrps * 1e3);
    const Tick gap = static_cast<Tick>(
        bed_.sim().rng().exponential(mean_gap_ticks));
    bed_.sim().queue().scheduleIn(gap, [this] {
        if (bed_.sim().now() >= measureEnd_) {
            // The last response may already be in: then no further
            // onClientRx() would ever stop the servers.
            maybeStopServers();
            return;
        }
        sendOne();
        scheduleNextArrival();
    });
}

void
RedisOpenLoop::sendOne()
{
    sent_.inc();
    ++inFlight_;
    inFlightDepth_.sample(static_cast<double>(inFlight_));
    // The send tick rides as the flow cookie: the response's latency
    // is now - cookie, with no per-client bookkeeping to alias when
    // arrivals overtake completions. It also spreads flows across the
    // NIC's queues (RSS is cookie % queues).
    remote_.send(nic_.port(), requestBytes(), bed_.sim().now());
}

void
RedisOpenLoop::onClientRx(const vmm::Packet& pkt)
{
    const Tick now = bed_.sim().now();
    latencies_.sample(now - static_cast<Tick>(pkt.cookie));
    completed_.inc();
    if (inFlight_ > 0)
        --inFlight_;
    maybeStopServers();
}

void
RedisOpenLoop::maybeStopServers()
{
    if (bed_.sim().now() < measureEnd_ || inFlight_ > 0 || stopSent_)
        return;
    // Load is off and the last response is in: poison every queue so
    // the server threads shut their vCPUs down and the testbed can
    // quiesce.
    stopSent_ = true;
    for (int q = 0; q < nic_.numQueues(); ++q)
        remote_.send(nic_.port(), 64, static_cast<std::uint64_t>(q));
}

sim::Proc<void>
RedisOpenLoop::serverThread(int t)
{
    co_await bed_.started().wait();
    guest::VCpu& v = vm_.vcpu(t);
    sim::Simulation& s = bed_.sim();
    if (t == 0 && !started_) {
        started_ = true;
        measureStart_ = s.now();
        measureEnd_ = measureStart_ + cfg_.duration;
        exitsAtStart_ = bed_.rmm().stats().exitsToHost.value();
        irqExitsAtStart_ =
            bed_.rmm().stats().irqRelatedExitsToHost.value();
        // Snapshot the exit counters when the offered load stops, so
        // the delta covers exactly the measurement window.
        s.queue().schedule(measureEnd_, [this] {
            exitsAtEnd_ = bed_.rmm().stats().exitsToHost.value();
            irqExitsAtEnd_ =
                bed_.rmm().stats().irqRelatedExitsToHost.value();
        });
        scheduleNextArrival();
    }
    for (;;) {
        vmm::Packet req = co_await nic_.recvQueue(v, t);
        if (req.cookie <
            static_cast<std::uint64_t>(nic_.numQueues())) {
            // Poison pill (real cookies are send ticks, far larger):
            // the sweep is over.
            break;
        }
        Tick service = s.rng().jittered(serviceTime(), 0.08);
        if (s.rng().chance(cfg_.slowOpProbability)) {
            service = static_cast<Tick>(
                static_cast<double>(service) * cfg_.slowOpFactor);
        }
        co_await Compute{service};
        co_await nic_.send(v, responseBytes(), remote_.port(),
                           req.cookie);
    }
    co_await v.shutdown();
}

RedisOpenLoop::Result
RedisOpenLoop::result() const
{
    Result r;
    r.offeredKrps = cfg_.offeredKrps;
    r.sent = sent_.value();
    r.completed = completed_.value();
    r.maxInFlight =
        static_cast<std::uint64_t>(inFlightDepth_.max());
    const Tick window =
        measureEnd_ > measureStart_ ? measureEnd_ - measureStart_ : 0;
    if (window > 0) {
        r.achievedKrps = static_cast<double>(r.completed) /
                         sim::toSec(window) / 1e3;
    }
    if (latencies_.count() > 0) {
        r.meanMs = latencies_.meanMs();
        r.p50Ms = latencies_.p50Ms();
        r.p99Ms = latencies_.p99Ms();
        r.p999Ms = latencies_.p999Ms();
    }
    r.vmExits = exitsAtEnd_ > exitsAtStart_
                    ? exitsAtEnd_ - exitsAtStart_
                    : 0;
    r.irqExits = irqExitsAtEnd_ > irqExitsAtStart_
                     ? irqExitsAtEnd_ - irqExitsAtStart_
                     : 0;
    return r;
}

} // namespace cg::workloads
