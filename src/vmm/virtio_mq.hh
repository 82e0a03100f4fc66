/**
 * @file
 * Virtio-net, multi-queue, with an IPU-offloaded backend: the serving
 * path of the open-loop latency sweeps (DESIGN.md section 11) and, at
 * one queue with a kick per send, fig. 8's emulated NIC.
 *
 * One device carries @c numQueues independent TX/RX queue pairs. Each
 * queue has its own doorbell (one MMIO word per queue inside the
 * device window), its own completion interrupt, its own EVENT_IDX
 * KickGate, its own NAPI coalescing state, and its own emulation
 * thread, so queues never serialise on each other in the VMM. Packets
 * steer to queues RSS-style by flow cookie.
 *
 * Two backends share the guest-facing API:
 *  - Backend::Trapped — classic VMM emulation: I/O threads are Fair
 *    host threads, doorbells are trapped MMIO writes (VM exits on the
 *    data path);
 *  - Backend::IpuOffload — the paper's section 5.3 direction taken to
 *    its end state: emulation runs on reserved I/O cores (Fifo, one
 *    core each), the doorbell is a posted write that crosses the
 *    interconnect with cache-line timing, and with @c directRx the
 *    completion MSI is injected by the monitor. Zero VM exits on the
 *    data path.
 *
 * Doorbells are batched: guestSend() only enqueues; the accumulated
 * burst is flushed by one doorbell when it reaches kickBatchLimit or
 * when the guest is about to block in guestRecv(). Under load one
 * trapped exit (or one posted write) therefore covers many packets.
 *
 * Kick suppression mirrors virtio's EVENT_IDX: a flush rings the
 * doorbell only if one of its sends found the TX ring empty (a
 * descriptor queued behind another is covered by that one's kick, as
 * in Linux's vring_need_event) and the device's armed flag (KickGate)
 * is visible. The device publishes the flag before sleeping and
 * disarms it while draining; the publish has cache-line timing, so the
 * device re-checks its rings once the flag lands (the lost-kick window
 * close). One kick per device sleep, however small the batch limit.
 */

#ifndef CG_VMM_VIRTIO_MQ_HH
#define CG_VMM_VIRTIO_MQ_HH

#include <deque>
#include <memory>
#include <vector>

#include "sim/stat_registry.hh"
#include "vmm/kick.hh"
#include "vmm/kvm.hh"
#include "vmm/netfabric.hh"

namespace cg::vmm {

/** Default MMIO window for the NIC (own page, clear of virtio-blk's);
 * a Testbed assigns its own. */
constexpr std::uint64_t mqNetMmioBase = 0x0a100000;
/** Per-queue doorbell stride inside the window: queue q kicks at
 * mmioBase + virtioKickOffset(0x50) + q * mqKickStride. */
constexpr std::uint64_t mqKickStride = 8;

class MqVirtioNet
{
  public:
    enum class Backend {
        Trapped,    ///< VMM I/O threads, trapped MMIO doorbells
        IpuOffload, ///< reserved I/O cores, posted doorbells
    };

    struct Config {
        std::uint64_t mmioBase = mqNetMmioBase;
        int numQueues = 4;
        /** Queue q completes through virtual interrupt irqBase + q,
         * delivered to vCPU q % numVcpus. */
        hw::IntId irqBase = 48;
        /** Queue q's MSI (IpuOffload backend): msiSpiBase + q. */
        hw::IntId msiSpiBase = 80;
        Backend backend = Backend::Trapped;
        /** Monitor-injected RX interrupts (gapped VMs only): the
         * owner wires GappedVm::mapDirectIrq per queue. */
        bool directRx = false;
        /** Flush the doorbell once this many sends are pending. */
        int kickBatchLimit = 8;
        /** EVENT_IDX armed-flag publish latency; 0 = the machine's
         * cacheLineTransfer cost. */
        sim::Tick eventIdxPublishDelay = 0;
        /** Trapped backend: where the I/O threads may run. */
        host::CpuMask ioThreadAffinity = host::CpuMask::all();
        /** IpuOffload backend: the reserved I/O cores; queue q pins
         * to ipuCores[q % size]. */
        std::vector<sim::CoreId> ipuCores;
        /** Hosted (non-direct) RX: host core receiving the MSIs. */
        sim::CoreId msiTargetCore = 0;
        /** Record per-queue TX processing order (determinism tests). */
        bool recordTxLog = false;
    };

    MqVirtioNet(KvmVm& vm, NetworkFabric& fabric, Config cfg);
    ~MqVirtioNet();

    int port() const { return port_; }
    int numQueues() const { return cfg_.numQueues; }
    const Config& config() const { return cfg_; }

    /** @{ Guest driver API. TX steers to queue cookie % numQueues;
     * RX arrives on the queue the remote flow hashes to, so a thread
     * serving queue q calls guestRecv(v, q). */
    sim::Proc<void> guestSend(guest::VCpu& v, std::uint64_t bytes,
                              int dst_port, std::uint64_t cookie = 0);
    sim::Proc<Packet> guestRecv(guest::VCpu& v, int queue);
    /** Flush queue @p queue's pending doorbell burst immediately. */
    sim::Proc<void> guestFlush(guest::VCpu& v, int queue);
    /** @} */

    std::uint64_t txPackets() const;
    std::uint64_t rxPackets() const;
    /** Trapped doorbell writes taken on the TX path (VM exits). The
     * IpuOffload backend must keep this at zero. */
    std::uint64_t dataPathKickExits() const
    {
        return kickExits_.value();
    }
    /** Lost-kick stalls avoided by the recheck-after-publish. */
    std::uint64_t kickRescues() const;
    /** TX processing order of @p queue (cookie per packet), recorded
     * when Config::recordTxLog is set. */
    const std::vector<std::uint64_t>& txLog(int queue) const;

    /** Register "mqnet.<vm>.*" rows. */
    void registerStats(sim::StatRegistry& reg);

  private:
    struct TxReq {
        std::uint64_t bytes;
        int dstPort;
        std::uint64_t cookie;
    };

    /** Everything one queue pair owns. */
    struct Queue {
        Queue(sim::EventQueue& q, std::function<void()> on_visible)
            : kickGate(q, std::move(on_visible))
        {}

        std::deque<TxReq> txRing;
        std::deque<Packet> rxBacklog;
        std::deque<Packet> rxDone;
        sim::Channel<Packet> guestRx;
        sim::Notify ioNotify;
        KickGate kickGate;
        bool irqArmed = true;   ///< per-queue NAPI coalescing
        int unkicked = 0;       ///< sends since the last doorbell
        /** A send since the last flush found txRing empty: only then
         * may the flush ring the doorbell (one kick per device sleep). */
        bool foundEmpty = false;
        host::Thread* ioThread = nullptr;
        std::vector<std::uint64_t> txLog;
        sim::Counter txPackets_;
        sim::Counter rxPackets_;
        sim::Counter kicks_;
        sim::Counter kicksSuppressed_;
        sim::Counter kickRescues_;
        sim::Counter irqs_;
        sim::Accumulator kickBatch_;  ///< sends flushed per doorbell
        sim::Accumulator queueDepth_; ///< ring depth at service time
    };

    sim::Proc<void> ioThreadBody(int q);
    sim::Proc<void> flushKicks(guest::VCpu& v, int q);
    void onKickMmio(std::uint64_t addr);
    void onFabricRx(const Packet& pkt);
    void onGuestIrq(int q);
    void recheckAfterPublish(int q);
    sim::Tick publishDelay() const;
    int irqVcpu(int q) const;
    sim::Simulation& sim() const;

    KvmVm& vm_;
    NetworkFabric& fabric_;
    Config cfg_;
    int port_;
    std::vector<std::unique_ptr<Queue>> queues_;
    sim::Counter kickExits_; ///< trapped doorbells (data-path exits)
    sim::StatGroup statGroup_;
};

} // namespace cg::vmm

#endif // CG_VMM_VIRTIO_MQ_HH
