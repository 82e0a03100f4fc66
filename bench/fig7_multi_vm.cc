/**
 * @file
 * Fig. 7: scaling to multiple VMs — aggregate CoreMark-PRO score for an
 * increasing count of 4-core VMs/CVMs. In the core-gapped
 * configuration every VMM is pinned to one shared host core (up to 15
 * VMMs here; the paper shows 16 on a larger part), demonstrating that
 * a single host core can service many CVMs thanks to asynchronous
 * calls and delegation.
 */

#include <iterator>

#include "bench/common.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "workloads/coremark.hh"

namespace sim = cg::sim;
namespace host = cg::host;
using namespace cg::workloads;
using cg::bench::banner;
using sim::Tick;

namespace {

double
aggregate(RunMode mode, int num_vms, RunOptions run)
{
    Testbed::Config cfg;
    cfg.run = std::move(run);
    cfg.numCores = 64;
    cfg.mode = mode;
    Testbed bed(cfg);
    std::vector<std::unique_ptr<CoreMarkPro>> works;
    for (int k = 0; k < num_vms; ++k) {
        VmInstance* vm = nullptr;
        if (isGapped(mode)) {
            // 4 dedicated cores per CVM; every VMM shares host core 0.
            std::vector<sim::CoreId> guests;
            for (int i = 0; i < 4; ++i)
                guests.push_back(1 + 4 * k + i);
            vm = &bed.createVmOn(sim::strFormat("vm%d", k), guests,
                                 host::CpuMask::single(0), 4);
        } else {
            vm = &bed.createVm(sim::strFormat("vm%d", k), 4);
        }
        CoreMarkPro::Config wcfg;
        wcfg.duration = 1 * sim::sec;
        works.push_back(
            std::make_unique<CoreMarkPro>(bed, *vm, wcfg));
        works.back()->install();
    }
    bed.spawnStart();
    bed.run(10 * sim::sec);
    double total = 0.0;
    for (const auto& w : works)
        total += w->result().score;
    return total;
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Fig. 7: aggregate CoreMark-PRO for K 4-core VMs",
           "fig. 7, section 5.2");
    std::printf("  %-6s %14s %14s %10s\n", "VMs", "shared",
                "core-gapped", "gap/shr");
    const int counts[] = {1, 2, 4, 8, 12, 15};
    const std::size_t nk = std::size(counts);
    // Independent sweep points (one Testbed each): job 2i is the
    // shared run for counts[i], job 2i+1 the core-gapped run. Run
    // options are taken in index order: point 0 is observed.
    std::vector<RunOptions> runs;
    for (std::size_t i = 0; i < 2 * nk; ++i)
        runs.push_back(cg::bench::runOptions());
    const auto scores = sim::ParallelRunner::mapIndexed<double>(
        2 * nk, [&](std::size_t i) {
            return aggregate(i % 2 == 0 ? RunMode::SharedCore
                                        : RunMode::CoreGapped,
                             counts[i / 2], runs[i]);
        });
    double first_gapped = 0.0;
    int first_k = 0;
    double last_gapped = 0.0;
    int last_k = 0;
    for (std::size_t i = 0; i < nk; ++i) {
        const int k = counts[i];
        const double s = scores[2 * i];
        const double g = scores[2 * i + 1];
        std::printf("  %-6d %14.0f %14.0f %10.2f\n", k, s, g,
                    s > 0 ? g / s : 0.0);
        if (first_k == 0) {
            first_k = k;
            first_gapped = g;
        }
        last_k = k;
        last_gapped = g;
    }
    const double linearity =
        (last_gapped / last_k) / (first_gapped / first_k);
    std::printf("\n  gapped per-VM score at %d VMs vs %d VM: %.2f "
                "(paper: linear scaling; one host core serves all "
                "VMMs without harming throughput)\n",
                last_k, first_k, linearity);
    cg::bench::jsonRow("gapped per-VM linearity (15 vs 1 VMs)", 1.0,
                       linearity);
    cg::bench::sectionEnd();
    return 0;
}
