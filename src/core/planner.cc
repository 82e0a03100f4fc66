#include "core/planner.hh"

#include <algorithm>
#include <map>

#include "sim/logging.hh"

namespace cg::core {

using sim::CoreId;

CorePlanner::CorePlanner(hw::Machine& machine,
                         host::CpuMask host_reserved)
    : machine_(machine),
      hostReserved_(host_reserved),
      reserved_(static_cast<size_t>(machine.numCores()), false)
{
    if ((host_reserved & host::CpuMask::firstN(machine.numCores()))
            .empty()) {
        sim::fatal("planner: no host cores reserved");
    }
}

bool
CorePlanner::isReserved(CoreId c) const
{
    return reserved_.at(static_cast<size_t>(c));
}

int
CorePlanner::freeCores() const
{
    int n = 0;
    for (CoreId c = 0; c < machine_.numCores(); ++c) {
        if (!hostReserved_.test(c) &&
            !reserved_[static_cast<size_t>(c)]) {
            ++n;
        }
    }
    return n;
}

int
CorePlanner::reservedCores() const
{
    int n = 0;
    for (bool r : reserved_)
        n += r ? 1 : 0;
    return n;
}

std::optional<std::vector<CoreId>>
CorePlanner::reserve(int n)
{
    if (n <= 0)
        sim::fatal("planner: reserve(%d)", n);
    if (n > freeCores())
        return std::nullopt; // admission control: never over-commit

    // Collect free cores per NUMA node.
    std::map<int, std::vector<CoreId>> by_node;
    for (CoreId c = 0; c < machine_.numCores(); ++c) {
        if (!hostReserved_.test(c) && !reserved_[static_cast<size_t>(c)])
            by_node[machine_.core(c).numaNode()].push_back(c);
    }
    // Prefer the node that fits with the least leftover (best fit);
    // fall back to spilling across nodes in node order.
    int best_node = -1;
    std::size_t best_slack = ~0ull;
    for (const auto& [node, cores] : by_node) {
        if (static_cast<int>(cores.size()) >= n &&
            cores.size() - static_cast<size_t>(n) < best_slack) {
            best_node = node;
            best_slack = cores.size() - static_cast<size_t>(n);
        }
    }
    std::vector<CoreId> out;
    if (best_node >= 0) {
        const auto& cores = by_node[best_node];
        out.assign(cores.begin(), cores.begin() + n);
    } else {
        for (const auto& [node, cores] : by_node) {
            for (CoreId c : cores) {
                if (static_cast<int>(out.size()) == n)
                    break;
                out.push_back(c);
            }
        }
    }
    CG_ASSERT(static_cast<int>(out.size()) == n,
              "planner accounting broken");
    for (CoreId c : out)
        reserved_[static_cast<size_t>(c)] = true;
    return out;
}

void
CorePlanner::reserveExact(const std::vector<CoreId>& cores)
{
    for (CoreId c : cores) {
        if (c < 0 || c >= machine_.numCores() || hostReserved_.test(c) ||
            reserved_[static_cast<size_t>(c)]) {
            sim::panic("planner: reserveExact on unavailable core %d",
                       c);
        }
    }
    for (CoreId c : cores)
        reserved_[static_cast<size_t>(c)] = true;
}

namespace {

/** One maximal run of consecutive core ids satisfying a predicate. */
struct Run {
    CoreId start = 0;
    int len = 0;
};

template <typename FreePred>
std::vector<Run>
collectRuns(int num_cores, FreePred&& is_free)
{
    std::vector<Run> runs;
    Run cur;
    for (CoreId c = 0; c < num_cores; ++c) {
        if (is_free(c)) {
            if (cur.len == 0)
                cur.start = c;
            ++cur.len;
        } else if (cur.len > 0) {
            runs.push_back(cur);
            cur.len = 0;
        }
    }
    if (cur.len > 0)
        runs.push_back(cur);
    return runs;
}

/** The tightest run fitting @p n (ties to the lowest start). */
std::optional<Run>
tightestFit(const std::vector<Run>& runs, int n)
{
    std::optional<Run> best;
    for (const Run& r : runs) {
        if (r.len < n)
            continue;
        if (!best || r.len < best->len)
            best = r;
    }
    return best;
}

} // namespace

int
CorePlanner::largestFreeRun() const
{
    int best = 0;
    const auto runs = collectRuns(machine_.numCores(), [&](CoreId c) {
        return !hostReserved_.test(c) &&
               !reserved_[static_cast<size_t>(c)];
    });
    for (const Run& r : runs)
        best = std::max(best, r.len);
    return best;
}

double
CorePlanner::fragmentation() const
{
    const int free = freeCores();
    if (free == 0)
        return 0.0;
    return 1.0 - static_cast<double>(largestFreeRun()) /
                     static_cast<double>(free);
}

std::optional<std::vector<CoreId>>
CorePlanner::planDefragMove(const std::vector<CoreId>& current) const
{
    if (current.empty())
        return std::nullopt;
    const int n = static_cast<int>(current.size());
    const auto held = [&](CoreId c) {
        return std::find(current.begin(), current.end(), c) !=
               current.end();
    };
    const auto free_now = [&](CoreId c) {
        return !hostReserved_.test(c) &&
               !reserved_[static_cast<size_t>(c)];
    };
    // Candidate destinations must be free *today* (the realm keeps
    // running on `current` until the copy commits).
    const auto best =
        tightestFit(collectRuns(machine_.numCores(), free_now), n);
    if (!best)
        return std::nullopt;
    std::vector<CoreId> dest;
    for (int i = 0; i < n; ++i)
        dest.push_back(best->start + i);
    // Only move if it strictly grows the largest free run: free' =
    // (free \ dest) + current.
    const auto free_after = [&](CoreId c) {
        if (std::find(dest.begin(), dest.end(), c) != dest.end())
            return false;
        return free_now(c) || held(c);
    };
    int run_after = 0;
    for (const Run& r : collectRuns(machine_.numCores(), free_after))
        run_after = std::max(run_after, r.len);
    if (run_after <= largestFreeRun())
        return std::nullopt;
    return dest;
}

void
CorePlanner::release(const std::vector<CoreId>& cores)
{
    for (CoreId c : cores) {
        if (c < 0 || c >= machine_.numCores())
            sim::panic("planner: releasing nonexistent core %d", c);
        if (!reserved_[static_cast<size_t>(c)]) {
            sim::panic("planner: releasing core %d that is not "
                       "reserved (double release, or a core the "
                       "planner never handed out)", c);
        }
        reserved_[static_cast<size_t>(c)] = false;
    }
}

} // namespace cg::core
