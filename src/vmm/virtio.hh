/**
 * @file
 * Virtio-blk emulation: the exit-intensive disk path of figs. 9/10,
 * and the MMIO doorbell layout virtio devices share (the network
 * device is vmm/virtio_mq.hh).
 *
 * The device is a pair of halves:
 *  - a guest-side driver API (called from guest processes): builds
 *    descriptors, pays guest-kernel stack costs, and *kicks* the device
 *    through a trapped MMIO doorbell write — the VM exit whose cost
 *    differs between shared-core and core-gapped configurations;
 *  - a host-side emulation thread (a VMM I/O thread contending for
 *    host CPU): pops descriptors, pays copy costs, talks to the disk,
 *    and injects completion IRQs.
 */

#ifndef CG_VMM_VIRTIO_HH
#define CG_VMM_VIRTIO_HH

#include <deque>
#include <map>

#include "vmm/disk.hh"
#include "vmm/kvm.hh"

namespace cg::vmm {

/** Default MMIO window assignments (one page per device). */
constexpr std::uint64_t virtioBlkMmioBase = 0x0a001000;
constexpr std::uint64_t virtioKickOffset = 0x50;

/** Emulated virtio block device. */
class VirtioBlk
{
  public:
    struct Config {
        std::uint64_t mmioBase = virtioBlkMmioBase;
        hw::IntId irq = 41;
        int irqVcpu = 0;
        host::CpuMask ioThreadAffinity = host::CpuMask::all();
    };

    VirtioBlk(KvmVm& vm, Disk& disk, Config cfg);
    ~VirtioBlk();

    /**
     * Synchronous (O_DIRECT-style) block I/O from a guest process:
     * returns when the completion interrupt has been handled.
     */
    sim::Proc<void> guestIo(guest::VCpu& v, std::uint64_t bytes,
                            bool write);

    std::uint64_t requestsCompleted() const { return completedCount_; }

  private:
    struct BlkReq {
        std::uint64_t bytes;
        bool write;
        std::uint64_t cookie;
    };

    sim::Proc<void> ioThreadBody();
    void onKick();
    void onGuestIrq();

    KvmVm& vm_;
    Disk& disk_;
    Config cfg_;
    std::deque<BlkReq> ring_;
    std::deque<std::uint64_t> done_;      ///< completions awaiting IRQ
    std::map<std::uint64_t, sim::Notify> waiters_;
    sim::Notify ioNotify_;
    host::Thread* ioThread_ = nullptr;
    std::uint64_t nextCookie_ = 1;
    std::uint64_t completedCount_ = 0;
};

} // namespace cg::vmm

#endif // CG_VMM_VIRTIO_HH
