/** @file Unit tests for the Tracer ring and Chrome trace export. */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

using namespace cg::sim;

namespace {

/**
 * Minimal structural JSON validation: quotes pair up and braces /
 * brackets nest correctly outside strings. Catches the usual
 * hand-rolled-emitter failures (trailing commas are additionally
 * checked below; unbalanced nesting and unterminated strings here).
 */
bool
structurallyValidJson(const std::string& s)
{
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (in_string) {
            if (c == '\\')
                ++i; // skip the escaped character
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_string && stack.empty();
}

} // namespace

TEST(Tracer, DisabledEmitsNothing)
{
    Simulation s;
    Tracer& t = s.tracer();
    EXPECT_FALSE(t.enabled());
    t.instant("x", Tracer::coresPid, 0);
    t.begin("y", Tracer::coresPid, 1);
    t.end("y", Tracer::coresPid, 1);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, RecordsEventsWithSimulatedTimestamps)
{
    Simulation s;
    s.tracer().enable();
    s.queue().scheduleIn(3 * usec, [&s] {
        s.tracer().begin("rec-run", Tracer::coresPid, 2);
    });
    s.queue().scheduleIn(5 * usec, [&s] {
        s.tracer().end("rec-run", Tracer::coresPid, 2, "exit", "wfi");
    });
    s.run();
    const auto evs = s.tracer().events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].ts, 3 * usec);
    EXPECT_EQ(evs[0].phase, 'B');
    EXPECT_EQ(evs[1].ts, 5 * usec);
    EXPECT_EQ(evs[1].phase, 'E');
    EXPECT_STREQ(evs[1].argName, "exit");
    EXPECT_STREQ(evs[1].argStr, "wfi");
}

TEST(Tracer, RingOverwritesOldestAndCountsDropped)
{
    Simulation s;
    Tracer& t = s.tracer();
    t.enable(4);
    for (int i = 0; i < 10; ++i)
        t.instant("e", Tracer::coresPid, i);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // The survivors are the newest four, oldest first.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(evs[static_cast<std::size_t>(i)].tid, 6 + i);
}

TEST(Tracer, ExportJsonSchema)
{
    Simulation s;
    Tracer& t = s.tracer();
    t.enable();
    t.begin("rec-run", Tracer::coresPid, 1);
    t.instant("doorbell-ring", Tracer::coresPid, 0);
    t.instant("ipi-send", Tracer::coresPid, 3, "ipi", 8);
    t.instant("syncrpc-post", Tracer::domainsPid, 2);
    t.end("rec-run", Tracer::coresPid, 1, "exit", "mmio");
    const std::string j = t.exportJson();

    EXPECT_TRUE(structurallyValidJson(j)) << j;
    EXPECT_EQ(j.find("{\"traceEvents\": ["), 0u);
    EXPECT_NE(j.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
    EXPECT_NE(j.find("\"droppedEvents\": 0"), std::string::npos);
    // No trailing commas (the other classic emitter bug).
    EXPECT_EQ(j.find(",]"), std::string::npos);
    EXPECT_EQ(j.find(",\n]"), std::string::npos);
    EXPECT_EQ(j.find(",}"), std::string::npos);

    // Metadata names both track families...
    EXPECT_NE(j.find("\"name\": \"cores\""), std::string::npos);
    EXPECT_NE(j.find("\"name\": \"vm-domains\""), std::string::npos);
    // ...and every (pid, tid) pair that appears gets a thread_name.
    EXPECT_NE(j.find("\"name\": \"core 1\""), std::string::npos);
    EXPECT_NE(j.find("\"name\": \"core 0\""), std::string::npos);
    EXPECT_NE(j.find("\"name\": \"core 3\""), std::string::npos);
    EXPECT_NE(j.find("\"name\": \"domain 2\""), std::string::npos);

    // The events themselves.
    EXPECT_NE(j.find("\"name\": \"rec-run\", \"ph\": \"B\""),
              std::string::npos);
    EXPECT_NE(j.find("\"args\": {\"ipi\": 8}"), std::string::npos);
    EXPECT_NE(j.find("\"args\": {\"exit\": \"mmio\"}"),
              std::string::npos);
    // Instants carry a scope.
    EXPECT_NE(j.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(j.find("\"s\": \"t\""), std::string::npos);
}

TEST(Tracer, TimestampsExportAsMicroseconds)
{
    Simulation s;
    s.tracer().enable();
    s.queue().scheduleIn(2500 * nsec, [&s] {
        s.tracer().instant("tick", Tracer::coresPid, 0);
    });
    s.run();
    // 2500 ns = 2.5 us.
    EXPECT_NE(s.tracer().exportJson().find("\"ts\": 2.500000"),
              std::string::npos);
}

TEST(Tracer, ReenableResetsTheRing)
{
    Simulation s;
    Tracer& t = s.tracer();
    t.enable(2);
    t.instant("a", Tracer::coresPid, 0);
    t.instant("b", Tracer::coresPid, 0);
    t.instant("c", Tracer::coresPid, 0);
    EXPECT_EQ(t.dropped(), 1u);
    t.enable(8);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.capacity(), 8u);
}

TEST(Tracer, WriteFileReportsAFullDisk)
{
    Simulation s;
    Tracer& t = s.tracer();
    t.enable();
    t.instant("a", Tracer::coresPid, 0);
    // Fits in the stdio buffer, so the error surfaces at fclose.
    EXPECT_FALSE(t.writeFile("/dev/full"));

    // Larger than the buffer, so fwrite itself comes up short.
    for (int i = 0; i < 512; ++i)
        t.instant("b", Tracer::coresPid, i);
    EXPECT_FALSE(t.writeFile("/dev/full"));
}
