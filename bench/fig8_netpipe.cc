/**
 * @file
 * Fig. 8: NetPIPE-style TCP ping-pong over the two NIC paths (emulated
 * virtio vs SR-IOV passthrough), shared-core baseline vs core-gapped
 * CVM. The paper's shapes: virtio suffers up to 2x latency and 30-70%
 * lower throughput core-gapped (exit- and emulation-intensive), while
 * SR-IOV stays within 10-20 us of the baseline and edges ahead on
 * throughput for larger, more compute-intensive messages.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/netpipe.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;

namespace {

NetPipe::Result
run(RunMode mode, bool sriov, std::uint64_t bytes)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 16;
    cfg.mode = mode;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("np", 16);
    std::unique_ptr<GuestNic> nic;
    if (sriov) {
        bed.addSriovNic(vm);
        nic = std::make_unique<SriovGuestNic>(*vm.sriov);
    } else {
        bed.addVirtioNet(vm);
        nic = std::make_unique<VirtioGuestNic>(*vm.vnet);
    }
    RemoteHost remote(bed.sim(), bed.fabric(),
                      bed.machine().costs().remoteStack);
    NetPipeResponder responder(remote);
    NetPipe::Config ncfg;
    ncfg.messageBytes = bytes;
    ncfg.iterations = bytes >= (1u << 20) ? 8 : 20;
    NetPipe np(bed, vm, *nic, remote, ncfg);
    np.install();
    bed.spawnStart();
    bed.run(60 * sim::sec);
    return np.result();
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Fig. 8: NetPIPE TCP latency and throughput",
           "fig. 8, section 5.3");
    std::printf("  %-10s | %-23s | %-23s | %-23s | %-23s\n", "",
                "virtio shared", "virtio gapped", "sriov shared",
                "sriov gapped");
    std::printf("  %-10s | %10s %12s | %10s %12s | %10s %12s | %10s "
                "%12s\n",
                "msg bytes", "lat us", "Gbps", "lat us", "Gbps",
                "lat us", "Gbps", "lat us", "Gbps");
    double v_ratio_small = 0, s_diff_small = 0;
    for (std::uint64_t bytes :
         {64ull, 256ull, 1448ull, 4096ull, 16384ull, 65536ull,
          262144ull, 1048576ull, 4194304ull}) {
        NetPipe::Result vs = run(RunMode::SharedCore, false, bytes);
        NetPipe::Result vg = run(RunMode::CoreGapped, false, bytes);
        NetPipe::Result ss = run(RunMode::SharedCore, true, bytes);
        NetPipe::Result sg = run(RunMode::CoreGapped, true, bytes);
        std::printf("  %-10llu | %10.1f %12.2f | %10.1f %12.2f | "
                    "%10.1f %12.2f | %10.1f %12.2f\n",
                    static_cast<unsigned long long>(bytes),
                    vs.latencyUs, vs.throughputGbps, vg.latencyUs,
                    vg.throughputGbps, ss.latencyUs, ss.throughputGbps,
                    sg.latencyUs, sg.throughputGbps);
        if (bytes == 1448) {
            v_ratio_small =
                vs.latencyUs > 0 ? vg.latencyUs / vs.latencyUs : 0;
            s_diff_small = sg.latencyUs - ss.latencyUs;
        }
    }
    std::printf("\nshape checks:\n");
    std::printf("  virtio gapped/shared latency at 1448 B: %.2fx "
                "(paper: up to 2x)\n",
                v_ratio_small);
    std::printf("  sriov gapped - shared latency at 1448 B: %.1f us "
                "(paper: within 10-20 us)\n",
                s_diff_small);
    cg::bench::sectionEnd();
    return 0;
}
