/**
 * @file
 * The user-mode core planner (section 3): admission control for
 * core-gapped CVMs and NUMA-aware placement of vCPUs onto dedicated
 * cores. Logically an extension of cluster-level VM allocators into
 * the node, and of vCPU-affinity schedulers into enforced placement.
 */

#ifndef CG_CORE_PLANNER_HH
#define CG_CORE_PLANNER_HH

#include <optional>
#include <vector>

#include "host/cpumask.hh"
#include "hw/machine.hh"

namespace cg::core {

class CorePlanner
{
  public:
    /**
     * @p host_reserved cores are never handed to guests (they run the
     * hypervisor, VMM I/O threads, and wake-up threads).
     */
    CorePlanner(hw::Machine& machine, host::CpuMask host_reserved);

    /**
     * Admission control: reserve @p n dedicated cores for one CVM.
     * Prefers a single NUMA node and low fragmentation (longest
     * contiguous runs first). Returns nullopt when the node cannot
     * host the VM (invariant I7: never over-commits).
     */
    std::optional<std::vector<sim::CoreId>> reserve(int n);

    /** Return previously reserved cores to the free pool. */
    void release(const std::vector<sim::CoreId>& cores);

    /**
     * Reserve exactly @p cores (all must be free). Used to take a
     * destination pool a defrag plan picked; panics on a non-free
     * core, so callers must plan and reserve atomically (the DES has
     * no preemption inside a call).
     */
    void reserveExact(const std::vector<sim::CoreId>& cores);

    /**
     * Plan a defrag move for a VM currently holding @p current:
     * treating @p current as free, pick the tightest contiguous free
     * run (disjoint from @p current) that fits, and return it only if
     * the move strictly grows the largest free run afterwards. Pure
     * planning — reserves nothing; pair with reserveExact().
     */
    std::optional<std::vector<sim::CoreId>>
    planDefragMove(const std::vector<sim::CoreId>& current) const;

    /** Longest run of consecutive free core ids. */
    int largestFreeRun() const;

    /** 1 - largestFreeRun/freeCores in [0,1]; 0 when empty or whole. */
    double fragmentation() const;

    int freeCores() const;
    int reservedCores() const;
    bool isReserved(sim::CoreId c) const;
    host::CpuMask hostReserved() const { return hostReserved_; }

  private:
    hw::Machine& machine_;
    host::CpuMask hostReserved_;
    std::vector<bool> reserved_;
};

} // namespace cg::core

#endif // CG_CORE_PLANNER_HH
