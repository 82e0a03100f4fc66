/**
 * @file
 * A uniform guest-side NIC interface over the network paths the paper
 * evaluates: emulated virtio (MqGuestNic; fig. 8 runs it at one queue)
 * and SR-IOV passthrough (fig. 8), plus the multi-queue / IPU-offload
 * serving path (DESIGN.md section 11).
 */

#ifndef CG_WORKLOADS_NIC_HH
#define CG_WORKLOADS_NIC_HH

#include "vmm/sriov.hh"
#include "vmm/virtio_mq.hh"

namespace cg::workloads {

class GuestNic
{
  public:
    virtual ~GuestNic() = default;

    virtual sim::Proc<void> send(guest::VCpu& v, std::uint64_t bytes,
                                 int dst_port,
                                 std::uint64_t cookie) = 0;
    virtual sim::Proc<vmm::Packet> recv(guest::VCpu& v) = 0;
    virtual int port() const = 0;

    /** @{ Queue-aware API for multi-queue devices. Single-queue NICs
     * have one queue and ignore the index, so workloads can be
     * written against queues unconditionally. */
    virtual int numQueues() const { return 1; }

    virtual sim::Proc<vmm::Packet>
    recvQueue(guest::VCpu& v, int queue)
    {
        (void)queue;
        return recv(v);
    }

    /** Flush any batched doorbells on @p queue (no-op by default). */
    virtual sim::Proc<void>
    flushQueue(guest::VCpu& v, int queue)
    {
        (void)v;
        (void)queue;
        co_return;
    }
    /** @} */
};

class SriovGuestNic : public GuestNic
{
  public:
    explicit SriovGuestNic(vmm::SriovNic& n) : nic_(n) {}

    sim::Proc<void>
    send(guest::VCpu& v, std::uint64_t bytes, int dst_port,
         std::uint64_t cookie) override
    {
        return nic_.guestSend(v, bytes, dst_port, cookie);
    }

    sim::Proc<vmm::Packet>
    recv(guest::VCpu& v) override
    {
        return nic_.guestRecv(v);
    }

    int port() const override { return nic_.port(); }

  private:
    vmm::SriovNic& nic_;
};

/** The virtio NIC (Trapped or IpuOffload backend); recv(v) with no
 * queue index reads queue 0. */
class MqGuestNic : public GuestNic
{
  public:
    explicit MqGuestNic(vmm::MqVirtioNet& n) : nic_(n) {}

    sim::Proc<void>
    send(guest::VCpu& v, std::uint64_t bytes, int dst_port,
         std::uint64_t cookie) override
    {
        return nic_.guestSend(v, bytes, dst_port, cookie);
    }

    sim::Proc<vmm::Packet>
    recv(guest::VCpu& v) override
    {
        return nic_.guestRecv(v, 0);
    }

    sim::Proc<vmm::Packet>
    recvQueue(guest::VCpu& v, int queue) override
    {
        return nic_.guestRecv(v, queue);
    }

    sim::Proc<void>
    flushQueue(guest::VCpu& v, int queue) override
    {
        return nic_.guestFlush(v, queue);
    }

    int numQueues() const override { return nic_.numQueues(); }
    int port() const override { return nic_.port(); }

  private:
    vmm::MqVirtioNet& nic_;
};

} // namespace cg::workloads

#endif // CG_WORKLOADS_NIC_HH
