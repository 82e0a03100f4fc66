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

// ------------------------------------------------------------- VirtioNet

VirtioNet::VirtioNet(KvmVm& vm, NetworkFabric& fabric, Config cfg)
    : vm_(vm), fabric_(fabric), cfg_(cfg),
      kickGate_(vm.kernel().machine().sim().queue(),
                [this] { recheckAfterPublish(); })
{
    port_ = fabric_.attach([this](const Packet& p) { onFabricRx(p); });
    MmioRange r;
    r.base = cfg_.mmioBase;
    r.size = 0x1000;
    r.onWrite = [this](const rmm::ExitInfo&) { onKick(); };
    r.onRead = [](std::uint64_t, int) { return 0ull; };
    vm_.mapMmio(r);
    vm_.guestVm().vcpu(cfg_.irqVcpu).setVirqHandler(
        cfg_.irq, [this] { onGuestIrq(); });
    ioThread_ = &vm_.kernel().createThread(
        sim::strFormat("%s/virtio-net-io", vm.guestVm().name().c_str()),
        ioThreadBody(), host::SchedClass::Fair, cfg_.ioThreadAffinity);
    ioThread_->footprint = 512;
}

VirtioNet::~VirtioNet()
{
    if (ioThread_ && !ioThread_->done())
        ioThread_->process().kill();
}

sim::Proc<void>
VirtioNet::guestSend(VCpu& v, std::uint64_t bytes, int dst_port,
                     std::uint64_t cookie)
{
    const hw::Costs& costs = v.vm().machine().costs();
    co_await Compute{v.vm().machine().cost(costs.guestNetStack) +
                     copyCost(bytes, costs.guestCopyBw)};
    const bool was_empty = txRing_.empty();
    txRing_.push_back(TxReq{bytes, dst_port, cookie});
    // EVENT_IDX: a non-empty ring means the device has already been
    // told (it drains to empty before re-arming), and the trapped
    // doorbell is only worth a VM exit while the device's armed flag
    // is visible — a push inside the publish window is suppressed and
    // relies on the device's recheck-after-publish.
    if (was_empty && kickGate_.armed())
        co_await v.mmioWrite(cfg_.mmioBase + virtioKickOffset, 1, 4);
    else if (was_empty)
        ++kicksSuppressed_;
}

sim::Proc<Packet>
VirtioNet::guestRecv(VCpu& v)
{
    const hw::Costs& costs = v.vm().machine().costs();
    if (guestRx_.empty() && !rxDone_.empty()) {
        // NAPI poll: pull already-copied packets without an interrupt.
        co_await Compute{v.vm().machine().cost(300 * sim::nsec)};
        while (!rxDone_.empty()) {
            guestRx_.send(rxDone_.front());
            rxDone_.pop_front();
        }
    }
    if (guestRx_.empty() && rxDone_.empty())
        irqArmed_ = true; // out of work: re-enable the interrupt
    Packet p = co_await guestRx_.recv();
    co_await Compute{v.vm().machine().cost(costs.guestNetStack) +
                     copyCost(p.bytes, costs.guestCopyBw)};
    co_return p;
}

void
VirtioNet::onKick()
{
    ioNotify_.notifyAll();
}

void
VirtioNet::onFabricRx(const Packet& pkt)
{
    rxBacklog_.push_back(pkt);
    ioNotify_.notifyAll();
}

sim::Tick
VirtioNet::publishDelay() const
{
    if (cfg_.eventIdxPublishDelay != 0)
        return cfg_.eventIdxPublishDelay;
    return vm_.kernel().machine().costs().cacheLineTransfer;
}

void
VirtioNet::recheckAfterPublish()
{
    if (txRing_.empty() && rxBacklog_.empty())
        return; // nothing raced the publish
    // A descriptor landed inside the publish window: its kick was
    // suppressed and the armed flag was not yet visible — without this
    // recheck the queue stalls until unrelated traffic wakes us.
    sim::Simulation& s = vm_.kernel().machine().sim();
    if (s.faults().query(sim::FaultSite::VirtioLostKick))
        return; // the historical bug: recheck skipped, kick lost
    ++kickRescues_;
    ioNotify_.notifyAll();
}

void
VirtioNet::onGuestIrq()
{
    // Guest interrupt handler: move completed packets to the driver.
    while (!rxDone_.empty()) {
        guestRx_.send(rxDone_.front());
        rxDone_.pop_front();
    }
}

sim::Proc<void>
VirtioNet::ioThreadBody()
{
    const hw::Costs& costs = vm_.kernel().machine().costs();
    hw::Machine& m = vm_.kernel().machine();
    for (;;) {
        while (txRing_.empty() && rxBacklog_.empty()) {
            // About to sleep: re-arm the guest-visible kick flag. The
            // recheck runs when the publish lands, closing the window
            // against descriptors pushed while it was in flight.
            kickGate_.publishArmed(publishDelay());
            co_await ioNotify_.wait();
        }
        kickGate_.disarm(); // draining: kicks are redundant until idle
        if (!txRing_.empty()) {
            TxReq req = txRing_.front();
            txRing_.pop_front();
            co_await Compute{m.cost(costs.virtioDescCost) +
                             copyCost(req.bytes, costs.vmmCopyBw)};
            Packet p;
            p.bytes = req.bytes;
            p.srcPort = port_;
            p.dstPort = req.dstPort;
            p.cookie = req.cookie;
            fabric_.send(p);
            ++txPackets_;
        }
        if (!rxBacklog_.empty()) {
            Packet p = rxBacklog_.front();
            rxBacklog_.pop_front();
            co_await Compute{m.cost(costs.virtioDescCost) +
                             copyCost(p.bytes, costs.vmmCopyBw)};
            rxDone_.push_back(p);
            ++rxPackets_;
            if (irqArmed_) {
                irqArmed_ = false;
                vm_.queueInjection(cfg_.irqVcpu, cfg_.irq);
            }
        }
    }
}

// ------------------------------------------------------------- VirtioBlk

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
