/**
 * @file
 * The vCPU kick broker: KVM's mechanism for interrupting a vCPU that
 * is currently executing guest code, by sending a physical IPI to the
 * core running it. One SGI number is shared by all VMs (as in Linux).
 */

#ifndef CG_VMM_KICK_HH
#define CG_VMM_KICK_HH

#include <functional>
#include <map>
#include <vector>

#include "guest/vcpu.hh"
#include "host/kernel.hh"
#include "sim/event_queue.hh"

namespace cg::vmm {

class KickBroker
{
  public:
    explicit KickBroker(host::Kernel& kernel);

    /**
     * Interrupt @p v if it is executing guest code: an IPI reaches its
     * core and forces a HostKick exit. No-op for exited vCPUs (their
     * runner thread is already in host code).
     */
    void kick(guest::VCpu& v);

    std::uint64_t kicksSent() const { return sent_; }

  private:
    void onIpi(sim::CoreId core);

    host::Kernel& kernel_;
    int ipi_;
    std::map<sim::CoreId, std::vector<guest::VCpu*>> pending_;
    std::uint64_t sent_ = 0;
};

/**
 * The EVENT_IDX kick-suppression flag, modeled with memory-system
 * timing. The device side publishes "armed" (please kick me) before it
 * sleeps and disarms it while draining; the guest driver reads the
 * flag after pushing a descriptor and only pays for the trapped
 * doorbell write when it is visible.
 *
 * The publish is not instantaneous: like RunSlot's mailbox, the flag
 * crosses a cache line, so armed() flips @c delay ticks after
 * publishArmed(). That wire delay opens the classic EVENT_IDX lost-kick
 * window — a descriptor pushed after the device decided to sleep but
 * before the armed flag lands is kicked by neither side. Correct
 * backends therefore give the gate an @c on_visible callback that
 * re-checks the ring *after* each publish lands and self-notifies if
 * work slipped in. Skipping that recheck is the bug
 * FaultSite::VirtioLostKick restores.
 */
class KickGate
{
  public:
    KickGate(sim::EventQueue& q, std::function<void()> on_visible)
        : queue_(q), onVisible_(std::move(on_visible))
    {}
    ~KickGate() { queue_.cancel(pending_); }

    KickGate(const KickGate&) = delete;
    KickGate& operator=(const KickGate&) = delete;

    /** Guest-visible: kick only when this reads true. */
    bool armed() const { return armed_; }

    /** Device starts draining: suppress kicks, drop any in-flight
     * publish (its recheck is superseded by the drain itself). */
    void disarm()
    {
        queue_.cancel(pending_);
        pending_ = sim::invalidEventId;
        armed_ = false;
    }

    /**
     * Device is about to sleep: schedule the armed flag to become
     * guest-visible after @p delay, then run the gate's on_visible
     * callback (the ring recheck). No-op if already armed or a publish
     * is in flight, so the wait loop may call this on every iteration.
     */
    void publishArmed(sim::Tick delay);

    /** Publishes that were still in flight when the device woke up
     * for another reason (RX traffic, a rescue recheck). */
    std::uint64_t publishes() const { return publishes_; }

  private:
    sim::EventQueue& queue_;
    std::function<void()> onVisible_;
    bool armed_ = true; ///< device starts receptive: first kick lands
    sim::EventId pending_ = sim::invalidEventId;
    std::uint64_t publishes_ = 0;
};

} // namespace cg::vmm

#endif // CG_VMM_KICK_HH
