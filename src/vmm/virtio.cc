#include "vmm/virtio.hh"

#include "sim/simulation.hh"

namespace cg::vmm {

using guest::VCpu;
using sim::Compute;
using sim::Tick;

namespace {

/** Copy cost at @p bytes_per_sec bandwidth. */
Tick
copyCost(std::uint64_t bytes, double bytes_per_sec)
{
    return static_cast<Tick>(static_cast<double>(bytes) /
                             bytes_per_sec * 1e12);
}

} // namespace

VirtioBlk::VirtioBlk(KvmVm& vm, Disk& disk, Config cfg)
    : vm_(vm), disk_(disk), cfg_(cfg)
{
    MmioRange r;
    r.base = cfg_.mmioBase;
    r.size = 0x1000;
    r.onWrite = [this](const rmm::ExitInfo&) { onKick(); };
    r.onRead = [](std::uint64_t, int) { return 0ull; };
    vm_.mapMmio(r);
    vm_.guestVm().vcpu(cfg_.irqVcpu).setVirqHandler(
        cfg_.irq, [this] { onGuestIrq(); });
    ioThread_ = &vm_.kernel().createThread(
        sim::strFormat("%s/virtio-blk-io", vm.guestVm().name().c_str()),
        ioThreadBody(), host::SchedClass::Fair, cfg_.ioThreadAffinity);
    ioThread_->footprint = 512;
}

VirtioBlk::~VirtioBlk()
{
    if (ioThread_ && !ioThread_->done())
        ioThread_->process().kill();
}

sim::Proc<void>
VirtioBlk::guestIo(VCpu& v, std::uint64_t bytes, bool write)
{
    const hw::Costs& costs = v.vm().machine().costs();
    co_await Compute{v.vm().machine().cost(costs.guestBlkStack) +
                     copyCost(bytes, costs.guestCopyBw)};
    const std::uint64_t cookie = nextCookie_++;
    sim::Notify& wait = waiters_[cookie];
    const bool was_empty = ring_.empty();
    ring_.push_back(BlkReq{bytes, write, cookie});
    if (was_empty)
        co_await v.mmioWrite(cfg_.mmioBase + virtioKickOffset, 1, 4);
    co_await wait.wait();
    waiters_.erase(cookie);
}

void
VirtioBlk::onKick()
{
    ioNotify_.notifyAll();
}

void
VirtioBlk::onGuestIrq()
{
    while (!done_.empty()) {
        const std::uint64_t cookie = done_.front();
        done_.pop_front();
        ++completedCount_;
        auto it = waiters_.find(cookie);
        if (it != waiters_.end())
            it->second.notifyAll();
    }
}

sim::Proc<void>
VirtioBlk::ioThreadBody()
{
    const hw::Costs& costs = vm_.kernel().machine().costs();
    hw::Machine& m = vm_.kernel().machine();
    for (;;) {
        while (ring_.empty())
            co_await ioNotify_.wait();
        BlkReq req = ring_.front();
        ring_.pop_front();
        co_await Compute{m.cost(costs.virtioDescCost) +
                         copyCost(req.bytes, costs.vmmCopyBw)};
        co_await disk_.io(req.bytes, req.write);
        co_await Compute{m.cost(costs.virtioDescCost)};
        done_.push_back(req.cookie);
        vm_.queueInjection(cfg_.irqVcpu, cfg_.irq);
    }
}

} // namespace cg::vmm
