/**
 * @file
 * Self-test of the perfbench driver.
 *
 *  - Tie to the paper benches: a tiny instance of each workload must
 *    reproduce numbers the paper benches print at their default seed
 *    (fig9_iozone's 4 KiB row; table5_redis --quick's gapped-ipu row).
 *  - Determinism: the same seed gives identical simulated results and
 *    per-layer counts, traced or not; another seed changes them.
 */

#include <gtest/gtest.h>

#include <string>

#include "perfbench/driver.hh"
#include "sim/logging.hh"

namespace pb = perfbench;
using cg::workloads::RunMode;

namespace {

std::string
fmt(const char* f, double v)
{
    return cg::sim::strFormat(f, v);
}

double
fig9Cell(RunMode mode, bool write)
{
    pb::BlkPoint p;
    p.mode = mode;
    p.recordBytes = 4096;
    p.write = write;
    p.ops = 512; // fig9_iozone: a 512 MiB file capped at 512 ops
    pb::RunResult out;
    const pb::BlkPointResult r = pb::runBlkPoint(p, false, out);
    EXPECT_TRUE(out.violations.empty());
    EXPECT_EQ(r.completed, 512);
    return r.throughputMBps;
}

/** The simulated side of a traced run: everything but host times. */
void
expectSameSimulation(const pb::RunResult& a, const pb::RunResult& b)
{
    EXPECT_EQ(a.latUs, b.latUs);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.attempted, b.attempted);
    EXPECT_EQ(a.failed, b.failed);
}

void
expectSameLayers(const pb::LayerTally& a, const pb::LayerTally& b)
{
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.tailEvents, b.tailEvents);
    EXPECT_EQ(a.peakPending, b.peakPending);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.samplesUs, b.samplesUs);
    EXPECT_EQ(a.opSimMs, b.opSimMs);
}

} // namespace

// fig9_iozone prints "4096 | 46.3 29.4 | 111.7 47.3".
TEST(TieToPaperBenches, Fig9SmallRecordRow)
{
    EXPECT_EQ(fmt("%.1f", fig9Cell(RunMode::CoreGapped, false)), "29.4");
    EXPECT_EQ(fmt("%.1f", fig9Cell(RunMode::SharedCore, false)), "46.3");
    EXPECT_EQ(fmt("%.1f", fig9Cell(RunMode::SharedCore, true)), "111.7");
    EXPECT_EQ(fmt("%.1f", fig9Cell(RunMode::CoreGapped, true)), "47.3");
}

// table5_redis --quick prints "gapped-ipu 80 80.9 0.05 0.04 0.18 0.24 0".
TEST(TieToPaperBenches, Table5QuickGappedIpu)
{
    pb::KvPoint p;
    p.mode = pb::KvMode::GappedIpu;
    p.offeredKrps = 80.0;
    p.window = 100 * cg::sim::msec;
    pb::RunResult out;
    const pb::KvPointResult r = pb::runKvPoint(p, false, out);
    EXPECT_TRUE(out.violations.empty());
    EXPECT_EQ(fmt("%.1f", r.r.achievedKrps), "80.9");
    EXPECT_EQ(fmt("%.2f", r.r.meanMs), "0.05");
    EXPECT_EQ(fmt("%.2f", r.r.p50Ms), "0.04");
    EXPECT_EQ(fmt("%.2f", r.r.p99Ms), "0.18");
    EXPECT_EQ(fmt("%.2f", r.r.p999Ms), "0.24");
    EXPECT_EQ(r.kickExits, 0u);
    EXPECT_EQ(r.r.irqExits, 0u);
}

class Determinism : public ::testing::TestWithParam<pb::Workload>
{
};

TEST_P(Determinism, SameSeedSameResultsTracedOrNot)
{
    const pb::RunResult a = pb::runWorkload(GetParam(), 7, true);
    const pb::RunResult b = pb::runWorkload(GetParam(), 7, true);
    const pb::RunResult c = pb::runWorkload(GetParam(), 7, false);
    EXPECT_TRUE(a.violations.empty());
    EXPECT_GT(a.layers.events, 0u);
    expectSameSimulation(a, b);
    expectSameLayers(a.layers, b.layers);
    expectSameSimulation(a, c);

    const pb::RunResult d = pb::runWorkload(GetParam(), 8, false);
    EXPECT_NE(a.latUs, d.latUs);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Determinism,
    ::testing::Values(pb::Workload::BlkSync, pb::Workload::KvOpenLoop,
                      pb::Workload::CvmChurn),
    [](const auto& info) {
        switch (info.param) {
          case pb::Workload::BlkSync:
            return std::string("BlkSync");
          case pb::Workload::KvOpenLoop:
            return std::string("KvOpenLoop");
          case pb::Workload::CvmChurn:
            return std::string("CvmChurn");
        }
        return std::string("Unknown");
    });
