/** @file Unit tests for the deterministic fault-injection plan. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace cg::sim;

TEST(FaultSites, NamesRoundTrip)
{
    for (int i = 0; i < numFaultSites; ++i) {
        const auto s = static_cast<FaultSite>(i);
        const auto back = faultSiteFromName(faultSiteName(s));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, s);
    }
    EXPECT_FALSE(faultSiteFromName("no-such-site").has_value());
}

TEST(FaultPlan, DisarmedIsInert)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    EXPECT_FALSE(plan.armed());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(plan.query(FaultSite::IpiDrop).has_value());
    // Disarmed queries do not even count occurrences: the plan is a
    // single branch, indistinguishable from its absence.
    EXPECT_EQ(plan.occurrences(FaultSite::IpiDrop), 0u);
    EXPECT_EQ(plan.injectedTotal(), 0u);
}

TEST(FaultPlan, ArmedWithNoSpecsNeverFires)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(plan.query(FaultSite::DoorbellLost).has_value());
    EXPECT_EQ(plan.occurrences(FaultSite::DoorbellLost), 10u);
    EXPECT_EQ(plan.injectedTotal(), 0u);
}

TEST(FaultPlan, NthOccurrenceTrigger)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(7);
    FaultSpec spec;
    spec.site = FaultSite::IpiDrop;
    spec.nth = 3;
    spec.param = 42;
    plan.add(spec);
    for (int i = 1; i <= 5; ++i) {
        const auto hit = plan.query(FaultSite::IpiDrop);
        if (i == 3) {
            ASSERT_TRUE(hit.has_value());
            EXPECT_EQ(*hit, 42);
        } else {
            EXPECT_FALSE(hit.has_value());
        }
    }
    EXPECT_EQ(plan.injected(FaultSite::IpiDrop), 1u);
    // Other sites are untouched.
    EXPECT_FALSE(plan.query(FaultSite::IpiDelay).has_value());
}

TEST(FaultPlan, MaxInjectionsBoundsFiring)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(7);
    FaultSpec spec;
    spec.site = FaultSite::SyncRpcStall;
    spec.maxInjections = 2;
    plan.add(spec);
    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        if (plan.query(FaultSite::SyncRpcStall).has_value())
            ++fired;
    }
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(plan.injected(FaultSite::SyncRpcStall), 2u);
}

TEST(FaultPlan, TickWindowGatesFiring)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(7);
    FaultSpec spec;
    spec.site = FaultSite::MonitorHang;
    spec.windowStart = 100 * nsec;
    spec.windowEnd = 200 * nsec;
    spec.maxInjections = 0; // unbounded; the window is the bound
    plan.add(spec);
    std::vector<bool> hits;
    for (const Tick t :
         {Tick{0}, 50 * nsec, 150 * nsec, 199 * nsec, 300 * nsec}) {
        sim.queue().scheduleIn(t - sim.now(), [&] {
            hits.push_back(
                plan.query(FaultSite::MonitorHang).has_value());
        });
        sim.run(t + 1);
    }
    ASSERT_EQ(hits.size(), 5u);
    EXPECT_EQ(hits, (std::vector<bool>{false, false, true, true,
                                       false}));
}

TEST(FaultPlan, ProbabilisticTriggerIsSeedDeterministic)
{
    const auto pattern = [](std::uint64_t seed) {
        Simulation sim(1);
        FaultPlan& plan = sim.faults();
        plan.arm(seed);
        FaultSpec spec;
        spec.site = FaultSite::RmiTransientError;
        spec.probability = 0.5;
        spec.maxInjections = 0;
        plan.add(spec);
        std::vector<bool> out;
        for (int i = 0; i < 200; ++i) {
            out.push_back(
                plan.query(FaultSite::RmiTransientError).has_value());
        }
        return out;
    };
    const std::vector<bool> a = pattern(11);
    EXPECT_EQ(a, pattern(11)) << "same seed must replay identically";
    EXPECT_NE(a, pattern(12)) << "different seed should differ";
    int fired = 0;
    for (const bool b : a)
        fired += b ? 1 : 0;
    EXPECT_GT(fired, 50);
    EXPECT_LT(fired, 150);
}

TEST(FaultPlan, DetectionAndRecoveryLatencyFromLastInjection)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(7);
    // A note with no injection behind it is spurious and ignored
    // (e.g. a watchdog pass that found nothing).
    plan.noteDetected(FaultSite::DoorbellLost);
    EXPECT_EQ(plan.detectionLatency(FaultSite::DoorbellLost).count(),
              0u);
    FaultSpec spec;
    spec.site = FaultSite::DoorbellLost;
    plan.add(spec);
    sim.queue().scheduleIn(10 * nsec, [&] {
        ASSERT_TRUE(plan.query(FaultSite::DoorbellLost).has_value());
    });
    sim.queue().scheduleIn(60 * nsec, [&] {
        plan.noteDetected(FaultSite::DoorbellLost);
    });
    sim.queue().scheduleIn(110 * nsec, [&] {
        plan.noteRecovered(FaultSite::DoorbellLost);
    });
    sim.run();
    ASSERT_EQ(plan.detectionLatency(FaultSite::DoorbellLost).count(),
              1u);
    ASSERT_EQ(plan.recoveryLatency(FaultSite::DoorbellLost).count(),
              1u);
    EXPECT_DOUBLE_EQ(
        plan.detectionLatency(FaultSite::DoorbellLost).meanNs(), 50.0);
    EXPECT_DOUBLE_EQ(
        plan.recoveryLatency(FaultSite::DoorbellLost).meanNs(), 100.0);
}

TEST(FaultPlan, RegisterStatsExposesDottedNames)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(7);
    FaultSpec spec;
    spec.site = FaultSite::IpiDrop;
    plan.add(spec);
    ASSERT_TRUE(plan.query(FaultSite::IpiDrop).has_value());
    plan.registerStats(sim.stats());
    const std::string dump = sim.stats().dumpText();
    EXPECT_NE(dump.find("faults.injected.ipi-drop"), std::string::npos);
    EXPECT_NE(dump.find("faults.detected.syncrpc-stall"),
              std::string::npos);
    EXPECT_NE(dump.find("faults.recovered.monitor-hang"),
              std::string::npos);
}

// ----------------------------------------------------------- plan text

TEST(FaultPlanParse, FullGrammar)
{
    const std::vector<FaultSpec> specs = FaultPlan::parse(
        "ipi-drop:nth=3;"
        "syncrpc-stall:p=0.25:max=2;"
        "ipi-delay:param=5us:from=1ms:until=2ms");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].site, FaultSite::IpiDrop);
    EXPECT_EQ(specs[0].nth, 3u);
    EXPECT_DOUBLE_EQ(specs[0].probability, 1.0);
    EXPECT_EQ(specs[1].site, FaultSite::SyncRpcStall);
    EXPECT_DOUBLE_EQ(specs[1].probability, 0.25);
    EXPECT_EQ(specs[1].maxInjections, 2u);
    EXPECT_EQ(specs[2].site, FaultSite::IpiDelay);
    EXPECT_EQ(specs[2].param, 5 * usec);
    EXPECT_EQ(specs[2].windowStart, 1 * msec);
    EXPECT_EQ(specs[2].windowEnd, 2 * msec);
}

TEST(FaultPlanParse, BareTimesAreNanoseconds)
{
    const std::vector<FaultSpec> specs =
        FaultPlan::parse("ipi-delay:param=250");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].param, 250 * nsec);
}

TEST(FaultPlanParse, EmptyClausesAreSkipped)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_EQ(FaultPlan::parse(";ipi-drop;").size(), 1u);
}

TEST(FaultPlanParse, MalformedInputThrows)
{
    EXPECT_THROW(FaultPlan::parse("no-such-site"), FatalError);
    EXPECT_THROW(FaultPlan::parse("ipi-drop:nth"), FatalError);
    EXPECT_THROW(FaultPlan::parse("ipi-drop:bogus=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("ipi-drop:p=zebra"), FatalError);
    EXPECT_THROW(FaultPlan::parse("ipi-delay:param=5lightyears"),
                 FatalError);
}

TEST(FaultPlanParse, OutOfRangeSpecsAreRejectedOnAdd)
{
    Simulation sim(1);
    FaultPlan& plan = sim.faults();
    plan.arm(1);
    FaultSpec bad_p;
    bad_p.probability = 1.5;
    EXPECT_THROW(plan.add(bad_p), FatalError);
    FaultSpec bad_window;
    bad_window.windowStart = 10;
    bad_window.windowEnd = 5;
    EXPECT_THROW(plan.add(bad_window), FatalError);
}

namespace {

/** What parse() rejects @p text with ("" if it accepts it). */
std::string
parseError(const std::string& text)
{
    try {
        FaultPlan::parse(text);
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

} // namespace

// Each of these once parsed to a plan that ran: stoull wraps a sign,
// stoull/stod stop at the first junk character, and NaN compares
// false against both ends of [0,1].
TEST(FaultPlanParseRejects, NegativeNth)
{
    EXPECT_EQ(parseError("ipi-drop:nth=-1"), "fault plan: bad count '-1'");
}

TEST(FaultPlanParseRejects, NegativeMax)
{
    EXPECT_EQ(parseError("ipi-drop:max=-2"), "fault plan: bad count '-2'");
}

TEST(FaultPlanParseRejects, TrailingJunkInACount)
{
    EXPECT_EQ(parseError("ipi-drop:nth=5x"), "fault plan: bad count '5x'");
}

TEST(FaultPlanParseRejects, NanProbability)
{
    EXPECT_EQ(parseError("ipi-drop:p=nan"),
              "fault spec probability nan out of [0,1]");
}

TEST(FaultPlanParseRejects, TrailingJunkInAProbability)
{
    EXPECT_EQ(parseError("ipi-drop:p=0.5junk"),
              "fault plan: bad probability '0.5junk'");
}

TEST(FaultPlanParseRejects, NonFiniteOrOversizedTime)
{
    EXPECT_EQ(parseError("ipi-drop:from=nan"), "fault plan: bad time 'nan'");
    EXPECT_EQ(parseError("ipi-drop:until=inf"),
              "fault plan: time 'inf' out of range");
    EXPECT_EQ(parseError("ipi-drop:until=1e30s"),
              "fault plan: time '1e30s' out of range");
}
