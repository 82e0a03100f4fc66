/**
 * @file
 * Extension: direct interrupt delivery for SR-IOV (section 5.3
 * anticipates it as "further changes to KVM and RMM"). The paper
 * attributes the core-gapped SR-IOV latency penalty (10-20 us over
 * the shared baseline) to the host-mediated interrupt path; this
 * harness shows direct delivery reclaiming it.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/netpipe.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;

namespace {

struct Row {
    NetPipe::Result np;
    std::uint64_t irqExits = 0;
    std::uint64_t direct = 0;
};

Row
run(RunMode mode, bool direct_irq, std::uint64_t bytes)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 16;
    cfg.mode = mode;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("np", 16);
    bed.addSriovNic(vm, direct_irq);
    SriovGuestNic nic(*vm.sriov);
    RemoteHost remote(bed.sim(), bed.fabric(),
                      bed.machine().costs().remoteStack);
    NetPipeResponder responder(remote);
    NetPipe::Config ncfg;
    ncfg.messageBytes = bytes;
    ncfg.iterations = 25;
    NetPipe np(bed, vm, nic, remote, ncfg);
    np.install();
    bed.spawnStart();
    bed.run(30 * sim::sec);
    Row r;
    r.np = np.result();
    if (mode != RunMode::SharedCore)
        r.irqExits = bed.rmm().stats().irqRelatedExitsToHost.value();
    if (vm.gapped)
        r.direct = vm.gapped->directInjections();
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Extension: direct interrupt delivery over SR-IOV",
           "section 5.3 (anticipated further changes to KVM and RMM)");
    std::printf("  %-10s | %13s | %13s | %17s\n", "", "shared",
                "gapped", "gapped + direct");
    std::printf("  %-10s | %13s | %13s | %17s\n", "msg bytes",
                "lat us", "lat us", "lat us");
    double closed = 0, gap = 0;
    for (std::uint64_t bytes : {64ull, 1448ull, 16384ull, 262144ull}) {
        Row s = run(RunMode::SharedCore, false, bytes);
        Row g = run(RunMode::CoreGapped, false, bytes);
        Row d = run(RunMode::CoreGapped, true, bytes);
        std::printf("  %-10llu | %13.1f | %13.1f | %17.1f\n",
                    static_cast<unsigned long long>(bytes),
                    s.np.latencyUs, g.np.latencyUs, d.np.latencyUs);
        if (bytes == 1448) {
            gap = g.np.latencyUs - s.np.latencyUs;
            closed = g.np.latencyUs - d.np.latencyUs;
        }
    }
    std::printf("\n  at 1448 B the indirect interrupt path costs "
                "+%.1f us over shared; direct delivery reclaims "
                "%.1f us of it (%.0f%%), with zero interrupt-related "
                "exits on the receive path.\n",
                gap, closed, gap > 0 ? closed / gap * 100.0 : 0.0);
    cg::bench::sectionEnd();
    return 0;
}
