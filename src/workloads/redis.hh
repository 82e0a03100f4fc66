/**
 * @file
 * Redis-style workloads.
 *
 * RedisBenchmark (table 5): a single-threaded in-guest server handling
 * SET/GET/LRANGE requests over SR-IOV, driven by a fleet of
 * closed-loop clients on the remote machine. Reports throughput and
 * mean/p95/p99 latency.
 *
 * RedisOpenLoop (the serving-path sweep, DESIGN.md section 11): an
 * open-loop Poisson arrival process against a multi-threaded server —
 * one server thread per NIC queue — measuring the latency distribution
 * at a fixed *offered* load. Unlike the closed-loop fleet, arrivals do
 * not wait for responses, so queueing delay shows up in the tail
 * (p99/p999) instead of silently throttling the offered rate.
 */

#ifndef CG_WORKLOADS_REDIS_HH
#define CG_WORKLOADS_REDIS_HH

#include <vector>

#include "workloads/nic.hh"
#include "workloads/remote.hh"
#include "workloads/testbed.hh"

namespace cg::workloads {

enum class RedisOp { Set, Get, Lrange100 };

const char* redisOpName(RedisOp op);

class RedisBenchmark
{
  public:
    struct Config {
        RedisOp op = RedisOp::Get;
        int clients = 50;
        std::uint64_t valueBytes = 512;
        Tick duration = 2 * sim::sec;
        /** Single-threaded server service time per operation. */
        Tick setService = 16500 * sim::nsec;
        Tick getService = 15500 * sim::nsec;
        Tick lrangeService = 72 * sim::usec;
        /** Mean exponential client think time between requests (adds
         * arrival noise so the server's queue occasionally drains and
         * interrupt-path costs show, as on real deployments). */
        Tick clientThink = 120 * sim::usec;
        /** Occasional slow operations (rehashing, expiry cycles, lazy
         * freeing): probability and cost multiplier. These produce the
         * latency tail redis-benchmark reports (table 5's p99 is ~2x
         * the mean). */
        double slowOpProbability = 0.012;
        double slowOpFactor = 9.0;
    };

    struct Result {
        double throughputKrps = 0.0;
        double meanMs = 0.0;
        double p95Ms = 0.0;
        double p99Ms = 0.0;
        std::uint64_t completed = 0;
    };

    RedisBenchmark(Testbed& bed, VmInstance& vm, GuestNic& nic,
                   RemoteHost& clients, Config cfg);

    /** Install server process + client behaviour. */
    void install();

    Result result() const;

    /** The raw latency samples (ticks), for regression tests. */
    const sim::Distribution& latencies() const { return latencies_; }

  private:
    sim::Proc<void> server();
    void onClientRx(const vmm::Packet& pkt);
    void clientSend(int client_id);
    void clientSendLater(int client_id);
    std::uint64_t requestBytes() const;
    std::uint64_t responseBytes() const;
    Tick serviceTime() const;

    Testbed& bed_;
    VmInstance& vm_;
    GuestNic& nic_;
    RemoteHost& remote_;
    Config cfg_;
    std::vector<Tick> sentAt_;
    sim::Distribution latencies_; ///< picoseconds
    std::uint64_t completed_ = 0;
    Tick measureStart_ = 0;
    Tick measureEnd_ = 0;
    bool clientsStarted_ = false;
};

/**
 * The open-loop Poisson load sweep workload. Requests arrive at the
 * configured offered rate regardless of completions; the request's
 * send tick travels as the flow cookie, so in-flight tracking needs no
 * per-client state and RSS steering (cookie % queues) spreads flows
 * across the NIC's queues. Server thread t runs on vCPU t and serves
 * queue t.
 */
class RedisOpenLoop
{
  public:
    struct Config {
        RedisOp op = RedisOp::Get;
        /** Offered load, thousands of requests per second. */
        double offeredKrps = 100.0;
        std::uint64_t valueBytes = 512;
        Tick duration = 1 * sim::sec;
        /** Per-thread service time per operation (same model as the
         * closed-loop benchmark). */
        Tick setService = 16500 * sim::nsec;
        Tick getService = 15500 * sim::nsec;
        Tick lrangeService = 72 * sim::usec;
        double slowOpProbability = 0.012;
        double slowOpFactor = 9.0;
        /** Server threads (capped at the VM's vCPU count and the
         * NIC's queue count). */
        int serverThreads = 4;
    };

    struct Result {
        double offeredKrps = 0.0;
        double achievedKrps = 0.0;
        double meanMs = 0.0;
        double p50Ms = 0.0;
        double p99Ms = 0.0;
        double p999Ms = 0.0;
        std::uint64_t sent = 0;
        std::uint64_t completed = 0;
        std::uint64_t maxInFlight = 0;
        /** KVM exit/injection deltas across the measurement window
         * (table 4 methodology): the data-path cost of this load. */
        std::uint64_t vmExits = 0;
        std::uint64_t irqExits = 0;
    };

    RedisOpenLoop(Testbed& bed, VmInstance& vm, GuestNic& nic,
                  RemoteHost& remote, Config cfg);

    /** Install server threads + the arrival process. */
    void install();

    Result result() const;

    const sim::LatencyStat& latencies() const { return latencies_; }

    /** Register "openloop.<vm>.*" rows. */
    void registerStats(sim::StatRegistry& reg);

  private:
    sim::Proc<void> serverThread(int t);
    void scheduleNextArrival();
    void sendOne();
    void onClientRx(const vmm::Packet& pkt);
    /** Poison every queue once the load is off and nothing is in
     * flight (idempotent). */
    void maybeStopServers();
    std::uint64_t requestBytes() const;
    std::uint64_t responseBytes() const;
    Tick serviceTime() const;

    Testbed& bed_;
    VmInstance& vm_;
    GuestNic& nic_;
    RemoteHost& remote_;
    Config cfg_;
    sim::LatencyStat latencies_;
    sim::Counter sent_;
    sim::Counter completed_;
    sim::Accumulator inFlightDepth_; ///< sampled at each arrival
    std::uint64_t inFlight_ = 0;
    Tick measureStart_ = 0;
    Tick measureEnd_ = 0;
    bool started_ = false;
    bool stopSent_ = false;
    std::uint64_t exitsAtStart_ = 0;
    std::uint64_t irqExitsAtStart_ = 0;
    std::uint64_t exitsAtEnd_ = 0;
    std::uint64_t irqExitsAtEnd_ = 0;
    sim::StatGroup statGroup_;
};

} // namespace cg::workloads

#endif // CG_WORKLOADS_REDIS_HH
