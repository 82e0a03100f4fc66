/**
 * @file
 * The bench harness's argv handling (bench/common.hh): which run
 * options each Testbed gets, and which flag values exit 2 before
 * anything runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hh"

namespace {

/** initHarness() over @p args (argv[0] is supplied). */
void
initWith(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    cg::bench::initHarness(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(HarnessRunOptions, OnlyTheFirstCallCarriesThePaths)
{
    initWith({"--stats", "s.txt", "--trace", "t.json", "--faults",
              "ipi-drop:nth=2", "--fault-seed", "0x10", "--check-abort"});
    std::vector<cg::workloads::RunOptions> runs;
    for (int i = 0; i < 3; ++i)
        runs.push_back(cg::bench::runOptions());
    EXPECT_EQ(runs[0].statsPath, "s.txt");
    EXPECT_EQ(runs[0].tracePath, "t.json");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const cg::workloads::RunOptions& r = runs[i];
        if (i > 0) {
            EXPECT_TRUE(r.statsPath.empty()) << "call " << i;
            EXPECT_TRUE(r.tracePath.empty()) << "call " << i;
        }
        // Everything else reaches every testbed.
        ASSERT_EQ(r.faults.size(), 1u);
        EXPECT_EQ(r.faults[0].site, cg::sim::FaultSite::IpiDrop);
        EXPECT_EQ(r.faults[0].nth, 2u);
        EXPECT_EQ(r.faultSeed, 16u);
        EXPECT_TRUE(r.check);
        EXPECT_TRUE(r.abortOnLeak);
        EXPECT_NE(r.writeFailed, nullptr);
    }
}

TEST(HarnessRunOptionsDeathTest, UnusablePlansAndSeedsExit2)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--faults", ";"},
        {"--faults", "ipi-drop:nth=-1"},
        {"--faults", "ipi-drop:max=-2"},
        {"--faults", "ipi-drop:nth=5x"},
        {"--faults", "ipi-drop:p=nan"},
        {"--faults", "ipi-drop:p=0.5junk"},
        {"--fault-seed", ""},
        {"--fault-seed", "abc"},
        {"--fault-seed", "5x"},
        {"--fault-seed", "-1"},
    };
    for (const auto& args : bad) {
        EXPECT_EXIT(initWith(args), testing::ExitedWithCode(2), "usage:")
            << args[0] << " " << args[1];
    }
}
