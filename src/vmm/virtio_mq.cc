#include "vmm/virtio_mq.hh"

#include "sim/simulation.hh"
#include "vmm/virtio.hh" // virtioKickOffset: shared doorbell layout

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

MqVirtioNet::MqVirtioNet(KvmVm& vm, NetworkFabric& fabric, Config cfg)
    : vm_(vm), fabric_(fabric), cfg_(cfg)
{
    if (cfg_.numQueues < 1)
        sim::fatal("mqnet: need at least one queue");
    if (cfg_.backend == Backend::IpuOffload && cfg_.ipuCores.empty())
        sim::fatal("mqnet: IpuOffload backend needs reserved I/O cores");

    port_ = fabric_.attach([this](const Packet& p) { onFabricRx(p); });

    MmioRange r;
    r.base = cfg_.mmioBase;
    r.size = 0x1000;
    r.onWrite = [this](const rmm::ExitInfo& e) { onKickMmio(e.addr); };
    r.onRead = [](std::uint64_t, int) { return 0ull; };
    vm_.mapMmio(r);

    host::Kernel& k = vm_.kernel();
    sim::EventQueue& eq = k.machine().sim().queue();
    for (int q = 0; q < cfg_.numQueues; ++q) {
        queues_.push_back(std::make_unique<Queue>(
            eq, [this, q] { recheckAfterPublish(q); }));
        const hw::IntId virq = cfg_.irqBase + q;
        vm_.guestVm().vcpu(irqVcpu(q)).setVirqHandler(
            virq, [this, q] { onGuestIrq(q); });
        if (cfg_.backend == Backend::IpuOffload && !cfg_.directRx) {
            // Hosted MSI path: the IPU's per-queue interrupt lands on
            // a host core which forwards it into the guest.
            const hw::IntId spi = cfg_.msiSpiBase + q;
            k.routeIrq(spi, cfg_.msiTargetCore);
            k.setIrqHandler(spi, [this, q](sim::CoreId) {
                vm_.queueInjection(irqVcpu(q), cfg_.irqBase + q);
            });
        }
        const std::string name = sim::strFormat(
            "%s/mqnet-io.q%d", vm.guestVm().name().c_str(), q);
        if (cfg_.backend == Backend::IpuOffload) {
            // Dedicated I/O core: the emulation thread owns it
            // outright, like firmware on an IPU core.
            const sim::CoreId core = cfg_.ipuCores[
                static_cast<size_t>(q) % cfg_.ipuCores.size()];
            queues_.back()->ioThread = &k.createThread(
                name, ioThreadBody(q), host::SchedClass::Fifo,
                host::CpuMask::single(core));
        } else {
            queues_.back()->ioThread = &k.createThread(
                name, ioThreadBody(q), host::SchedClass::Fair,
                cfg_.ioThreadAffinity);
        }
        queues_.back()->ioThread->footprint = 512;
    }
}

MqVirtioNet::~MqVirtioNet()
{
    for (auto& q : queues_) {
        if (q->ioThread && !q->ioThread->done())
            q->ioThread->process().kill();
    }
}

sim::Simulation&
MqVirtioNet::sim() const
{
    return vm_.kernel().machine().sim();
}

int
MqVirtioNet::irqVcpu(int q) const
{
    return q % vm_.guestVm().numVcpus();
}

sim::Tick
MqVirtioNet::publishDelay() const
{
    if (cfg_.eventIdxPublishDelay != 0)
        return cfg_.eventIdxPublishDelay;
    return vm_.kernel().machine().costs().cacheLineTransfer;
}

std::uint64_t
MqVirtioNet::txPackets() const
{
    std::uint64_t n = 0;
    for (const auto& q : queues_)
        n += q->txPackets_.value();
    return n;
}

std::uint64_t
MqVirtioNet::rxPackets() const
{
    std::uint64_t n = 0;
    for (const auto& q : queues_)
        n += q->rxPackets_.value();
    return n;
}

std::uint64_t
MqVirtioNet::kickRescues() const
{
    std::uint64_t n = 0;
    for (const auto& q : queues_)
        n += q->kickRescues_.value();
    return n;
}

const std::vector<std::uint64_t>&
MqVirtioNet::txLog(int queue) const
{
    return queues_.at(static_cast<size_t>(queue))->txLog;
}

sim::Proc<void>
MqVirtioNet::guestSend(VCpu& v, std::uint64_t bytes, int dst_port,
                       std::uint64_t cookie)
{
    const hw::Costs& costs = v.vm().machine().costs();
    co_await Compute{v.vm().machine().cost(costs.guestNetStack) +
                     copyCost(bytes, costs.guestCopyBw)};
    const int qi = static_cast<int>(
        cookie % static_cast<std::uint64_t>(cfg_.numQueues));
    Queue& q = *queues_[static_cast<size_t>(qi)];
    // EVENT_IDX (vring_need_event): only a descriptor that lands on
    // an empty ring needs a kick; the device drains to empty before it
    // sleeps, so one behind it is covered by its kick.
    if (q.txRing.empty())
        q.foundEmpty = true;
    q.txRing.push_back(TxReq{bytes, dst_port, cookie});
    ++q.unkicked;
    // Doorbell batching: defer the (possibly trapped) kick until a
    // burst accumulated; guestRecv flushes before blocking so the
    // tail of a burst is never stranded.
    if (q.unkicked >= cfg_.kickBatchLimit)
        co_await flushKicks(v, qi);
}

sim::Proc<void>
MqVirtioNet::guestFlush(VCpu& v, int queue)
{
    co_await flushKicks(v, queue);
}

sim::Proc<void>
MqVirtioNet::flushKicks(VCpu& v, int qi)
{
    Queue& q = *queues_[static_cast<size_t>(qi)];
    if (q.unkicked == 0)
        co_return;
    const int batch = q.unkicked;
    const bool found_empty = q.foundEmpty;
    q.unkicked = 0;
    q.foundEmpty = false;
    q.kickBatch_.sample(static_cast<double>(batch));
    sim().tracer().instant("mq-kick-flush", sim::Tracer::domainsPid, 0,
                           "batch",
                           static_cast<std::uint64_t>(batch));
    if (!found_empty || !q.kickGate.armed()) {
        // EVENT_IDX: the burst queued behind an already-kicked
        // descriptor, or the device is draining (or its re-arm is
        // still in flight) — it will see the burst on its next ring
        // check.
        q.kicksSuppressed_.inc();
        co_return;
    }
    q.kicks_.inc();
    if (cfg_.backend == Backend::Trapped) {
        kickExits_.inc();
        co_await v.mmioWrite(cfg_.mmioBase + virtioKickOffset +
                                 static_cast<std::uint64_t>(qi) *
                                     mqKickStride,
                             1, 4);
    } else {
        // Posted doorbell: a store that crosses the interconnect to
        // the IPU core — no trap, no exit. The device notices one
        // cache-line transfer later.
        hw::Machine& m = v.vm().machine();
        co_await Compute{m.cost(m.costs().sriovDoorbell)};
        sim().queue().scheduleIn(
            vm_.kernel().machine().costs().cacheLineTransfer,
            [this, qi] {
                queues_[static_cast<size_t>(qi)]->ioNotify.notifyAll();
            });
    }
}

sim::Proc<Packet>
MqVirtioNet::guestRecv(VCpu& v, int queue)
{
    Queue& q = *queues_.at(static_cast<size_t>(queue));
    const hw::Costs& costs = v.vm().machine().costs();
    if (q.guestRx.empty() && !q.rxDone.empty()) {
        // NAPI poll: pull already-copied packets without an interrupt.
        co_await Compute{v.vm().machine().cost(300 * sim::nsec)};
        while (!q.rxDone.empty()) {
            q.guestRx.send(q.rxDone.front());
            q.rxDone.pop_front();
        }
    }
    if (q.guestRx.empty() && q.rxDone.empty())
        q.irqArmed = true; // out of work: re-enable the interrupt
    // About to block: don't strand a partial TX burst behind us.
    co_await flushKicks(v, queue);
    Packet p = co_await q.guestRx.recv();
    co_await Compute{v.vm().machine().cost(costs.guestNetStack) +
                     copyCost(p.bytes, costs.guestCopyBw)};
    co_return p;
}

void
MqVirtioNet::onKickMmio(std::uint64_t addr)
{
    const std::uint64_t off = addr - cfg_.mmioBase - virtioKickOffset;
    const auto qi = static_cast<int>(off / mqKickStride);
    if (qi < 0 || qi >= cfg_.numQueues)
        return; // stray write inside the window: not a doorbell
    queues_[static_cast<size_t>(qi)]->ioNotify.notifyAll();
}

void
MqVirtioNet::onFabricRx(const Packet& pkt)
{
    // RSS: the flow cookie hashes the packet to its queue.
    const auto qi = static_cast<size_t>(
        pkt.cookie % static_cast<std::uint64_t>(cfg_.numQueues));
    queues_[qi]->rxBacklog.push_back(pkt);
    queues_[qi]->ioNotify.notifyAll();
}

void
MqVirtioNet::onGuestIrq(int qi)
{
    Queue& q = *queues_[static_cast<size_t>(qi)];
    while (!q.rxDone.empty()) {
        q.guestRx.send(q.rxDone.front());
        q.rxDone.pop_front();
    }
}

void
MqVirtioNet::recheckAfterPublish(int qi)
{
    Queue& q = *queues_[static_cast<size_t>(qi)];
    if (q.txRing.empty() && q.rxBacklog.empty())
        return; // nothing raced the publish
    if (sim().faults().query(sim::FaultSite::VirtioLostKick))
        return; // the historical bug: recheck skipped, kick lost
    q.kickRescues_.inc();
    q.ioNotify.notifyAll();
}

sim::Proc<void>
MqVirtioNet::ioThreadBody(int qi)
{
    Queue& q = *queues_[static_cast<size_t>(qi)];
    hw::Machine& m = vm_.kernel().machine();
    const hw::Costs& costs = m.costs();
    for (;;) {
        while (q.txRing.empty() && q.rxBacklog.empty()) {
            q.kickGate.publishArmed(publishDelay());
            co_await q.ioNotify.wait();
        }
        q.kickGate.disarm(); // draining: kicks are redundant until idle
        q.queueDepth_.sample(
            static_cast<double>(q.txRing.size() + q.rxBacklog.size()));
        sim().tracer().instant(
            "mq-queue-depth", sim::Tracer::domainsPid, 0, "depth",
            static_cast<std::uint64_t>(q.txRing.size() +
                                       q.rxBacklog.size()));
        if (!q.txRing.empty()) {
            TxReq req = q.txRing.front();
            q.txRing.pop_front();
            co_await Compute{m.cost(costs.virtioDescCost) +
                             copyCost(req.bytes, costs.vmmCopyBw)};
            Packet p;
            p.bytes = req.bytes;
            p.srcPort = port_;
            p.dstPort = req.dstPort;
            p.cookie = req.cookie;
            fabric_.send(p);
            q.txPackets_.inc();
            if (cfg_.recordTxLog)
                q.txLog.push_back(req.cookie);
        }
        if (!q.rxBacklog.empty()) {
            Packet p = q.rxBacklog.front();
            q.rxBacklog.pop_front();
            co_await Compute{m.cost(costs.virtioDescCost) +
                             copyCost(p.bytes, costs.vmmCopyBw)};
            q.rxDone.push_back(p);
            q.rxPackets_.inc();
            if (q.irqArmed) {
                q.irqArmed = false;
                q.irqs_.inc();
                if (cfg_.directRx) {
                    // The monitor injects straight into the guest's
                    // dedicated core: no host on the completion path.
                    m.gic().raiseSpi(cfg_.msiSpiBase + qi);
                } else if (cfg_.backend == Backend::IpuOffload) {
                    m.gic().raiseSpi(cfg_.msiSpiBase + qi);
                } else {
                    vm_.queueInjection(irqVcpu(qi), cfg_.irqBase + qi);
                }
            }
        }
    }
}

void
MqVirtioNet::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, sim::strFormat(
        "mqnet.%s", vm_.guestVm().name().c_str()));
    statGroup_.add("kick-exits", kickExits_);
    for (int i = 0; i < cfg_.numQueues; ++i) {
        Queue& q = *queues_[static_cast<size_t>(i)];
        const std::string p = sim::strFormat("q%d.", i);
        statGroup_.add(p + "tx-packets", q.txPackets_);
        statGroup_.add(p + "rx-packets", q.rxPackets_);
        statGroup_.add(p + "kicks", q.kicks_);
        statGroup_.add(p + "kicks-suppressed", q.kicksSuppressed_);
        statGroup_.add(p + "kick-rescues", q.kickRescues_);
        statGroup_.add(p + "irqs", q.irqs_);
        statGroup_.add(p + "kick-batch", q.kickBatch_);
        statGroup_.add(p + "queue-depth", q.queueDepth_);
    }
}

} // namespace cg::vmm
