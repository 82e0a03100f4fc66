/**
 * @file
 * The host speed probe: a fixed piece of host work shaped like the
 * simulator's inner loop, timed between the parts of a workload so the
 * driver can tell how fast the host itself ran while it measured.
 *
 * A few hundred coroutines sleep for pseudo-random delays on a
 * binary-heap event queue of std::function callbacks, and each wake-up
 * inserts into or erases from a std::map of heap-allocated values:
 * coroutine frames, indirect calls, allocation churn and a pointer-heavy
 * working set, as in the simulator. It shares no code with the
 * simulator, so a change to the program leaves it alone, while the
 * host's own speed (other tenants on the machine, its clock) moves it
 * the way it moves the workloads.
 */

#include <algorithm>
#include <coroutine>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/driver.hh"

namespace perfbench {

namespace {

constexpr int probeWorkers = 256;
constexpr int probeWakeups = 100; ///< per worker
constexpr int probeReps = 5;

std::uint64_t
xorshift(std::uint64_t& x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** A coroutine that starts suspended and is destroyed by its owner. */
struct Task {
    struct promise_type {
        Task
        get_return_object()
        {
            return {std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_always initial_suspend() { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() {}
    };
    std::coroutine_handle<promise_type> h;
};

class Queue
{
  public:
    using Event = std::pair<std::uint64_t, std::function<void()>>;

    void
    at(std::uint64_t t, std::function<void()> f)
    {
        heap_.emplace_back(t, std::move(f));
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), later);
        Event e = std::move(heap_.back());
        heap_.pop_back();
        now = e.first;
        e.second();
        return true;
    }

    std::uint64_t now = 0;
    std::map<std::uint64_t, std::unique_ptr<std::uint64_t>> live;

  private:
    static bool
    later(const Event& a, const Event& b)
    {
        return a.first > b.first;
    }

    std::vector<Event> heap_;
};

struct Sleep {
    Queue& q;
    std::uint64_t delay;

    bool await_ready() { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        q.at(q.now + delay, [h] { h.resume(); });
    }
    void await_resume() {}
};

Task
worker(Queue& q, std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (int i = 0; i < probeWakeups; ++i) {
        co_await Sleep{q, 1 + xorshift(x) % 1000};
        if (x & 1)
            q.live[x % 512] = std::make_unique<std::uint64_t>(x);
        else
            q.live.erase(x % 512);
    }
}

double
probeOnce()
{
    static volatile std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    Queue q;
    std::vector<Task> tasks;
    tasks.reserve(probeWorkers);
    for (int i = 0; i < probeWorkers; ++i) {
        tasks.push_back(worker(q, static_cast<std::uint64_t>(i) * 7919 + 1));
        const std::coroutine_handle<> h = tasks.back().h;
        q.at(static_cast<std::uint64_t>(i), [h] { h.resume(); });
    }
    while (q.step()) {
    }
    for (Task& t : tasks)
        t.h.destroy();
    sink = sink + q.now;
    return secondsSince(t0);
}

} // namespace

double
probeHostS()
{
    double best = probeOnce();
    for (int i = 1; i < probeReps; ++i)
        best = std::min(best, probeOnce());
    return best;
}

} // namespace perfbench
