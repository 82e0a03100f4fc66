/**
 * @file
 * KickGate publishes without touching the heap.
 *
 * Every time a virtio I/O thread goes idle it publishes the armed flag
 * through KickGate::publishArmed(), so the publish event must fit
 * EventFn's inline buffer. This file replaces the global operator new
 * for the whole test binary with a counting one (the counter is all
 * it adds), and asserts that a warmed-up publish loop allocates
 * nothing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hh"
#include "vmm/kick.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

} // namespace

// Kept out of line: inlined into a delete-expression, the free() below
// draws GCC's -Wmismatched-new-delete, which cannot see the pairing.
[[gnu::noinline]] void*
operator new(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

TEST(KickGate, PublishDoesNotAllocate)
{
    cg::sim::EventQueue q;
    int rechecks = 0;
    cg::vmm::KickGate gate(q, [&rechecks] { ++rechecks; });
    auto cycle = [&] {
        gate.disarm();
        gate.publishArmed(100);
        q.run();
    };
    // Let the queue size its slot pool and run storage first.
    for (int i = 0; i < 64; ++i)
        cycle();
    const std::uint64_t before = allocations.load();
    for (int i = 0; i < 1000; ++i)
        cycle();
    EXPECT_EQ(allocations.load() - before, 0u);
    // Each publish landed, armed the gate and ran the recheck.
    EXPECT_TRUE(gate.armed());
    EXPECT_EQ(rechecks, 1064);
    EXPECT_EQ(gate.publishes(), 1064u);
}
