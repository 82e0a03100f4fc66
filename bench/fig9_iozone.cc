/**
 * @file
 * Fig. 9: IOzone-style sync read/write throughput to a virtio block
 * device (O_DIRECT). Paper shape: core-gapping pays for the exit- and
 * emulation-heavy path at small records and converges with the shared
 * baseline only on large (> 10 MiB) I/Os.
 */

#include "bench/common.hh"
#include "sim/simulation.hh"
#include "workloads/iozone.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
using namespace cg::workloads;
using cg::bench::banner;

namespace {

IoZone::Result
run(RunMode mode, std::uint64_t record, bool write)
{
    Testbed::Config cfg;
    cfg.run = cg::bench::runOptions();
    cfg.numCores = 16;
    cfg.mode = mode;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("io", 16);
    bed.addVirtioBlk(vm);
    IoZone::Config icfg;
    icfg.recordBytes = record;
    icfg.fileBytes = 512ull << 20;
    icfg.maxOps = 512;
    icfg.write = write;
    IoZone io(bed, vm, icfg);
    io.install();
    bed.spawnStart();
    bed.run(120 * sim::sec);
    return io.result();
}

} // namespace

int
main(int argc, char** argv)
{
    cg::bench::initHarness(argc, argv);
    banner("Fig. 9: IOzone sync read/write over virtio-blk (O_DIRECT)",
           "fig. 9, section 5.3");
    std::printf("  %-12s | %-21s | %-21s\n", "",
                "read MB/s", "write MB/s");
    std::printf("  %-12s | %10s %10s | %10s %10s\n", "record",
                "shared", "gapped", "shared", "gapped");
    double small_ratio = 0, large_ratio = 0;
    for (std::uint64_t record :
         {4096ull, 65536ull, 262144ull, 1048576ull, 4194304ull,
          16777216ull, 67108864ull}) {
        IoZone::Result rs = run(RunMode::SharedCore, record, false);
        IoZone::Result rg = run(RunMode::CoreGapped, record, false);
        IoZone::Result ws = run(RunMode::SharedCore, record, true);
        IoZone::Result wg = run(RunMode::CoreGapped, record, true);
        std::printf("  %-12llu | %10.1f %10.1f | %10.1f %10.1f\n",
                    static_cast<unsigned long long>(record),
                    rs.throughputMBps, rg.throughputMBps,
                    ws.throughputMBps, wg.throughputMBps);
        if (record == 65536)
            small_ratio = rs.throughputMBps > 0
                              ? rg.throughputMBps / rs.throughputMBps
                              : 0;
        if (record == 67108864)
            large_ratio = rs.throughputMBps > 0
                              ? rg.throughputMBps / rs.throughputMBps
                              : 0;
    }
    std::printf("\nshape checks:\n");
    std::printf("  gapped/shared read throughput at 64 KiB: %.2f "
                "(paper: well below 1)\n",
                small_ratio);
    std::printf("  gapped/shared read throughput at 64 MiB: %.2f "
                "(paper: converges to ~1 above 10 MiB)\n",
                large_ratio);
    cg::bench::sectionEnd();
    return 0;
}
