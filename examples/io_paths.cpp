/**
 * @file
 * The two I/O paths of section 5.3, side by side: emulated virtio
 * (every kick is a VM exit handled by a VMM thread) versus SR-IOV
 * passthrough (DMA straight to the guest, host only forwards the MSI).
 * Runs a small ping-pong on each path in shared-core and core-gapped
 * configurations and prints the per-path exit bills.
 *
 *   $ ./examples/io_paths
 */

#include <cstdio>
#include <memory>

#include "sim/simulation.hh"
#include "workloads/netpipe.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;

namespace {

struct Outcome {
    NetPipe::Result np;
    std::uint64_t mmioExits;
    std::uint64_t exits;
    std::uint64_t injections;
};

Outcome
run(RunMode mode, bool sriov)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = mode;
    Testbed bed(cfg);
    guest::VmConfig vcfg;
    vcfg.tickPeriod = 0; // leave only the I/O path's own exits
    VmInstance& vm = bed.createVm("io", 3, vcfg);
    std::unique_ptr<GuestNic> nic;
    if (sriov) {
        bed.addSriovNic(vm);
        nic = std::make_unique<SriovGuestNic>(*vm.sriov);
    } else {
        bed.addMqNic(vm, {.queues = 1, .kickBatchLimit = 1});
        nic = std::make_unique<MqGuestNic>(*vm.mqnet);
    }
    RemoteHost remote(bed.sim(), bed.fabric(),
                      bed.machine().costs().remoteStack);
    NetPipeResponder responder(remote);
    NetPipe::Config ncfg;
    ncfg.messageBytes = 1448;
    ncfg.iterations = 50;
    NetPipe np(bed, vm, *nic, remote, ncfg);
    np.install();
    bed.spawnStart();
    bed.run(20 * sim::sec);
    Outcome o;
    o.np = np.result();
    o.mmioExits = vm.kvm->stats().mmioExits.value();
    o.exits = vm.kvm->stats().exits.value();
    o.injections = vm.kvm->stats().injections.value();
    return o;
}

void
report(const char* label, const Outcome& o)
{
    std::printf("  %-24s rtt %7.1f us | %4llu MMIO exits, %4llu "
                "total exits, %4llu IRQ injections (for 53 "
                "round trips)\n",
                label, o.np.rttMeanUs,
                static_cast<unsigned long long>(o.mmioExits),
                static_cast<unsigned long long>(o.exits),
                static_cast<unsigned long long>(o.injections));
}

} // namespace

int
main()
{
    std::printf("1448-byte ping-pong, 50 measured round trips:\n\n");
    std::printf("virtio (emulated by a VMM thread):\n");
    report("shared-core", run(RunMode::SharedCore, false));
    report("core-gapped", run(RunMode::CoreGapped, false));
    std::printf("\nSR-IOV VF passthrough:\n");
    report("shared-core", run(RunMode::SharedCore, true));
    report("core-gapped", run(RunMode::CoreGapped, true));
    std::printf(
        "\nReading: virtio's doorbell kicks and completion interrupts "
        "are VM exits, and each core-gapped exit crosses cores "
        "through the RPC channel plus the userspace VMM turnaround -- "
        "the penalty fig. 8 shows. SR-IOV avoids exits on the data "
        "path entirely (TX causes zero MMIO exits); only interrupt "
        "forwarding still involves the host, which is why the paper "
        "expects direct interrupt delivery to close the remaining gap.\n");
    return 0;
}
