/**
 * @file
 * Fig. 10: parallel (Linux-kernel-style) build over a virtio disk.
 * Paper shape: despite one fewer vCPU and a disadvantage on emulated
 * disk I/O, core-gapped CVMs scale like the shared-core baseline.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/kbuild.hh"

namespace sim = cg::sim;
using namespace cg::workloads;
using cg::bench::banner;
using sim::Tick;

namespace {

Tick
buildTime(RunMode mode, int phys_cores)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = phys_cores;
    cfg.mode = mode;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("kb", phys_cores);
    bed.addVirtioBlk(vm);
    KernelBuild::Config kcfg; // defaults: 240 jobs x ~220 ms + link
    KernelBuild kb(bed, vm, kcfg);
    kb.install();
    bed.spawnStart();
    bed.run(600 * sim::sec);
    KernelBuild::Result r = kb.result();
    if (!r.finished)
        std::fprintf(stderr, "warning: build did not finish (%d/%d)\n",
                     r.jobsDone, kcfg.jobs);
    return r.buildTime;
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Fig. 10: parallel kernel-style build over virtio disk",
           "fig. 10, section 5.4");
    std::printf("  %-6s %14s %14s %10s\n", "cores", "shared (s)",
                "gapped (s)", "gap/shr");
    double r4 = 0, r16 = 0;
    for (int n : {4, 8, 12, 16}) {
        const Tick s = buildTime(RunMode::SharedCore, n);
        const Tick g = buildTime(RunMode::CoreGapped, n);
        const double ratio =
            s > 0 ? sim::toSec(g) / sim::toSec(s) : 0.0;
        std::printf("  %-6d %14.2f %14.2f %10.2f\n", n, sim::toSec(s),
                    sim::toSec(g), ratio);
        if (n == 4)
            r4 = ratio;
        if (n == 16)
            r16 = ratio;
    }
    std::printf("\nshape checks:\n");
    std::printf("  gapped/shared build time at 4 cores: %.2f and at "
                "16 cores: %.2f (paper: comparable despite one fewer "
                "vCPU; the N-1/N handicap shrinks as N grows)\n",
                r4, r16);
    cg::bench::sectionEnd();
    return 0;
}
