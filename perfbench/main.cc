/**
 * @file
 * perfbench: run one workload for a fixed host-time budget and print
 * its metrics as one JSON object on the last line of stdout.
 *
 *   perfbench --workload <blk-sync|kv-openloop|cvm-churn>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 repeats the timed (untraced) workload and reports the
 * end-to-end metrics; --trace 1 alternates timed and traced instances
 * and reports the per-layer metrics plus the tracing overhead. Every
 * instance of a run uses the same seed, so its simulated results must
 * repeat exactly; any difference, or any failed correctness check,
 * makes the run incorrect and the exit code 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/driver.hh"

namespace pb = perfbench;

namespace {

/** Fewest timed instances a --trace 0 run measures, however short
 * --seconds is, so its medians have a middle. */
constexpr int minInstances = 3;

/** probeHostS() on the reference host (4-vCPU Intel Xeon VM, quiet):
 * end-to-end host times are reported at that host's speed. */
constexpr double probeRefS = 3.7e-3;

struct Metric {
    double value;
    const char* unit;
};

using Metrics = std::map<std::string, Metric>;

double
median(const std::vector<double>& v)
{
    return pb::percentile(v, 50.0);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Simulated results that must repeat exactly for a given seed. */
bool
sameSimulation(const pb::RunResult& a, const pb::RunResult& b)
{
    return a.latUs == b.latUs && a.fingerprint == b.fingerprint &&
           a.attempted == b.attempted && a.failed == b.failed;
}

std::uint64_t
completedOps(const pb::RunResult& r)
{
    return r.attempted - r.failed;
}

/**
 * Host seconds of one measure of the whole workload (@p part picks
 * each part's whole time or its set-up alone), at the reference host's
 * speed. Other tenants of a shared host slow everything on it, for
 * minutes at a time, by up to ~1.8x; the speed probe run just before
 * each part slows with them and not with the program, so each part's
 * time is divided by it. The median of that ratio over the run's
 * instances is taken per part, summed, and scaled by the probe's time
 * on the reference host.
 */
double
atRefSpeed(const std::vector<pb::RunResult>& runs,
           std::vector<double> pb::RunResult::*part)
{
    double sum = 0;
    for (std::size_t i = 0; i < (runs.front().*part).size(); ++i) {
        std::vector<double> ratios;
        for (const pb::RunResult& r : runs)
            ratios.push_back((r.*part).at(i) / r.partProbeS.at(i));
        sum += median(ratios);
    }
    return sum * probeRefS;
}

Metrics
endToEnd(const std::vector<pb::RunResult>& runs)
{
    const double wall = atRefSpeed(runs, &pb::RunResult::partWallS);
    const auto& lat = runs.front().latUs;
    const auto it = lat.find("gapped");
    const std::vector<double> none;
    const std::vector<double>& gapped = it != lat.end() ? it->second : none;
    return {
        {"wall_s", {wall, "s"}},
        {"setup_s", {atRefSpeed(runs, &pb::RunResult::partSetupS), "s"}},
        {"ops_per_host_s",
         {static_cast<double>(completedOps(runs.front())) / wall, "1/s"}},
        {"peak_rss_mb", {peakRssMb(), "MB"}},
        {"sim_op_p50_us.gapped", {pb::percentile(gapped, 50), "us"}},
        {"sim_op_p99_us.gapped", {pb::percentile(gapped, 99), "us"}},
    };
}

/** The per-layer metrics of one traced instance. */
Metrics
perLayer(const pb::RunResult& r)
{
    const pb::LayerTally& t = r.layers;
    const double ops = static_cast<double>(completedOps(r));
    auto count = [&t](const char* stem) {
        auto it = t.counts.find(stem);
        return it != t.counts.end() ? it->second : 0.0;
    };
    auto perOp = [&](const char* stem) { return ratio(count(stem), ops); };
    auto p50 = [&t](const char* key) {
        auto it = t.samplesUs.find(key);
        return it != t.samplesUs.end() ? pb::percentile(it->second, 50)
                                       : 0.0;
    };
    auto opMedian = [](const std::map<std::string, std::vector<double>>& m,
                       const char* kind) {
        auto it = m.find(kind);
        return it != m.end() ? median(it->second) : 0.0;
    };
    auto modeLat = [&r](const char* mode, double p) {
        auto it = r.latUs.find(mode);
        return it != r.latUs.end() ? pb::percentile(it->second, p) : 0.0;
    };
    auto modeSamples = [&r](const char* mode) {
        auto it = r.latUs.find(mode);
        return it != r.latUs.end() ? static_cast<double>(it->second.size())
                                   : 0.0;
    };
    const double events = static_cast<double>(t.events);
    return {
        {"sim.events", {events, "count"}},
        {"sim.events_per_op", {ratio(events, ops), "count/op"}},
        {"sim.ns_per_event", {ratio(t.stepHostS * 1e9, events), "ns"}},
        {"sim.peak_pending",
         {static_cast<double>(t.peakPending), "count"}},
        {"sim.tail_events_frac",
         {ratio(static_cast<double>(t.tailEvents), events), "ratio"}},
        {"sim.tail_host_frac", {ratio(t.tailHostS, t.stepHostS), "ratio"}},
        {"workloads.ops", {ops, "count"}},
        {"workloads.testbed_build_us", {median(t.testbedBuildUs), "us"}},
        {"workloads.vm_create_us", {median(t.vmCreateUs), "us"}},
        {"workloads.bringup_host_us", {median(t.bringupHostUs), "us"}},
        {"workloads.teardown_us", {median(t.teardownUs), "us"}},
        {"sim_op_samples.shared", {modeSamples("shared"), "count"}},
        {"sim_op_samples.gapped", {modeSamples("gapped"), "count"}},
        {"sim_op_samples.gapped_ipu", {modeSamples("gapped_ipu"), "count"}},
        {"sim_op_p50_us.shared", {modeLat("shared", 50), "us"}},
        {"sim_op_p99_us.shared", {modeLat("shared", 99), "us"}},
        {"sim_op_p50_us.gapped_ipu", {modeLat("gapped_ipu", 50), "us"}},
        {"sim_op_p99_us.gapped_ipu", {modeLat("gapped_ipu", 99), "us"}},
        {"vmm.kvm_exits_per_op", {perOp("vmm.kvm_exits"), "count/op"}},
        {"vmm.mmio_exits_per_op", {perOp("vmm.mmio_exits"), "count/op"}},
        {"vmm.kick_exits_per_op", {perOp("vmm.kick_exits"), "count/op"}},
        {"vmm.kicks_per_op", {perOp("vmm.kicks"), "count/op"}},
        {"vmm.kick_batch_mean",
         {ratio(count("vmm.kick_batch_sum"), count("vmm.kick_batch_n")),
          "count"}},
        {"vmm.irqs_per_op", {perOp("vmm.irqs"), "count/op"}},
        {"vmm.injections_per_op", {perOp("vmm.injections"), "count/op"}},
        {"rmm.rmi_calls_per_op", {perOp("rmm.rmi_calls"), "count/op"}},
        {"rmm.exits_to_host_per_op",
         {perOp("rmm.exits_to_host"), "count/op"}},
        {"rmm.delegated_timer_events_per_op",
         {perOp("rmm.delegated_timer_events"), "count/op"}},
        {"rmm.local_wfi_waits_per_op",
         {perOp("rmm.local_wfi_waits"), "count/op"}},
        {"rmm.migration_granules_copied_per_op",
         {perOp("rmm.migration_granules_copied"), "count/op"}},
        {"rmm.rec_run_us.p50", {p50("rmm.rec_run_us"), "us"}},
        {"core.doorbell_rings_per_op",
         {perOp("core.doorbell_rings"), "count/op"}},
        {"core.sync_rpc_served_per_op",
         {perOp("core.sync_rpc_served"), "count/op"}},
        {"core.wake_latency_us.p50", {p50("core.wake_latency_us"), "us"}},
        {"core.run_call_rtt_us.p50", {p50("core.run_call_rtt_us"), "us"}},
        {"core.doorbell_ring_to_wake_us.p50",
         {p50("core.doorbell_ring_to_wake_us"), "us"}},
        {"core.syncrpc_post_to_response_us.p50",
         {p50("core.syncrpc_post_to_response_us"), "us"}},
        {"core.start_host_ms", {opMedian(t.opHostMs, "start"), "ms"}},
        {"core.start_sim_ms", {opMedian(t.opSimMs, "start"), "ms"}},
        {"core.migrate_host_ms", {opMedian(t.opHostMs, "migrate"), "ms"}},
        {"core.migrate_sim_ms", {opMedian(t.opSimMs, "migrate"), "ms"}},
        {"core.teardown_host_ms", {opMedian(t.opHostMs, "teardown"), "ms"}},
        {"core.teardown_sim_ms", {opMedian(t.opSimMs, "teardown"), "ms"}},
        {"core.migrate_commit_ratio",
         {ratio(count("core.migrate_committed"), count("core.migrate_ops")),
          "ratio"}},
        {"host.context_switches_per_op",
         {perOp("host.context_switches"), "count/op"}},
        {"host.ipis_per_op", {perOp("host.ipis"), "count/op"}},
        {"host.hotplug_host_ms", {opMedian(t.opHostMs, "hotplug"), "ms"}},
        {"host.hotplug_sim_ms", {opMedian(t.opSimMs, "hotplug"), "ms"}},
        {"guest.ticks_per_op", {perOp("guest.ticks"), "count/op"}},
        {"guest.virqs_per_op", {perOp("guest.virqs"), "count/op"}},
        {"guest.exits_generated_per_op",
         {perOp("guest.exits_generated"), "count/op"}},
        {"hw.gic_delivered_per_op",
         {perOp("hw.gic_delivered"), "count/op"}},
        {"check.events_per_op", {perOp("check.events"), "count/op"}},
        {"check.leak_edges", {count("check.leak_edges"), "count"}},
    };
}

/** Median of each metric across traced instances. */
Metrics
medianMetrics(const std::vector<Metrics>& all)
{
    Metrics out;
    for (const auto& [name, m] : all.front()) {
        std::vector<double> v;
        for (const Metrics& x : all)
            v.push_back(x.at(name).value);
        out[name] = {median(v), m.unit};
    }
    return out;
}

void
report(const std::vector<pb::RunResult>& runs)
{
    const pb::RunResult& r = runs.front();
    std::printf("instances %zu, ops %llu attempted, %llu failed "
                "(fail_ratio %.6f)\n",
                runs.size(), static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                ratio(static_cast<double>(r.failed),
                      static_cast<double>(r.attempted)));
    std::vector<double> probes;
    for (const pb::RunResult& x : runs)
        probes.insert(probes.end(), x.partProbeS.begin(), x.partProbeS.end());
    std::printf("host speed probe: median %.3f ms over %zu (reference "
                "%.3f ms)\n",
                median(probes) * 1e3, probes.size(), probeRefS * 1e3);
    for (const auto& [mode, lat] : r.latUs) {
        std::printf("  %-10s %8zu samples  p50 %10.3f us  p99 %10.3f us\n",
                    mode.c_str(), lat.size(), pb::percentile(lat, 50),
                    pb::percentile(lat, 99));
    }
}

void
printJson(bool correct, const pb::RunResult& r, const Metrics& m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const char* sep = "";
    for (const auto& [name, metric] : m) {
        const double v = std::isfinite(metric.value) ? metric.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), v, metric.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <blk-sync|kv-openloop|"
                 "cvm-churn> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* flag = argv[i];
        const char* val = argv[i + 1];
        char* end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            workload = val;
        } else if (std::strcmp(flag, "--seed") == 0) {
            seed = std::strtoull(val, &end, 10);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            seconds = std::strtod(val, &end);
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = static_cast<int>(std::strtol(val, &end, 10));
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    pb::Workload w{};
    if (argc % 2 == 0 || !pb::parseWorkload(workload, w) ||
        seconds <= 0 || (trace != 0 && trace != 1))
        return usage();

    // Only the first timed instance keeps its samples (the reference
    // the others must match); the rest keep their timings alone, so
    // peak RSS does not grow with the number of instances a run fits.
    const pb::Clock::time_point t0 = pb::Clock::now();
    std::vector<pb::RunResult> timed;
    std::vector<Metrics> layers;
    std::vector<double> timedWall, tracedWall;
    bool correct = true;
    auto check = [&](const pb::RunResult& r) {
        for (const std::string& v : r.violations)
            std::printf("  VIOLATION: %s\n", v.c_str());
        correct = correct && r.violations.empty() && r.failed == 0 &&
                  (timed.empty() || sameSimulation(r, timed.front()));
    };
    do {
        pb::RunResult r = pb::runWorkload(w, seed, false);
        check(r);
        timedWall.push_back(r.wallS);
        if (!timed.empty()) {
            r.latUs.clear();
            r.layers = {};
        }
        timed.push_back(std::move(r));
        if (trace == 1) {
            const pb::RunResult t = pb::runWorkload(w, seed, true);
            check(t);
            layers.push_back(perLayer(t));
            tracedWall.push_back(t.wallS);
        }
    } while ((trace == 0 && static_cast<int>(timed.size()) < minInstances) ||
             pb::secondsSince(t0) < seconds);
    report(timed);

    Metrics m;
    if (trace == 0) {
        m = endToEnd(timed);
    } else {
        m = medianMetrics(layers);
        m["trace.wall_s"] = {median(tracedWall), "s"};
        m["trace.overhead_s"] = {median(tracedWall) - median(timedWall),
                                 "s"};
    }
    printJson(correct, timed.front(), m);
    return correct ? 0 : 1;
}
