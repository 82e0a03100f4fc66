/** @file Unit tests for the StatRegistry / StatGroup directory. */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace cg::sim;

TEST(StatRegistry, RegisterLookupAndRemove)
{
    StatRegistry reg;
    Counter c;
    Accumulator a;
    Distribution d;
    LatencyStat l;
    std::uint64_t raw = 42;

    reg.add("rmm.exitsToHost", c);
    reg.add("host.latencyJitter", a);
    reg.add("net.rtt", d);
    reg.add("gapped.vm0.runToRun", l);
    reg.addValue("guest.vm0.vcpu0.guestCpuTime", raw);
    EXPECT_EQ(reg.size(), 5u);
    EXPECT_TRUE(reg.has("rmm.exitsToHost"));
    EXPECT_FALSE(reg.has("rmm.nope"));

    c.inc(7);
    ASSERT_NE(reg.counter("rmm.exitsToHost"), nullptr);
    EXPECT_EQ(reg.counter("rmm.exitsToHost")->value(), 7u);
    ASSERT_NE(reg.value("guest.vm0.vcpu0.guestCpuTime"), nullptr);
    EXPECT_EQ(*reg.value("guest.vm0.vcpu0.guestCpuTime"), 42u);

    // Typed lookup rejects kind mismatches.
    EXPECT_EQ(reg.accumulator("rmm.exitsToHost"), nullptr);
    EXPECT_EQ(reg.counter("net.rtt"), nullptr);
    EXPECT_NE(reg.distribution("net.rtt"), nullptr);
    EXPECT_NE(reg.latency("gapped.vm0.runToRun"), nullptr);
    EXPECT_NE(reg.accumulator("host.latencyJitter"), nullptr);

    reg.remove("net.rtt");
    EXPECT_FALSE(reg.has("net.rtt"));
    reg.remove("net.rtt"); // unknown name: ignored
    EXPECT_EQ(reg.size(), 4u);
}

TEST(StatRegistry, NamesAreSorted)
{
    StatRegistry reg;
    Counter c1, c2, c3;
    reg.add("zeta", c1);
    reg.add("alpha", c2);
    reg.add("mid.leaf", c3);
    const std::vector<std::string> expect{"alpha", "mid.leaf", "zeta"};
    EXPECT_EQ(reg.names(), expect);
}

TEST(StatRegistry, RemovePrefix)
{
    StatRegistry reg;
    Counter a, b, c;
    reg.add("kvm.vm0.exits", a);
    reg.add("kvm.vm0.injections", b);
    reg.add("kvm.vm1.exits", c);
    reg.removePrefix("kvm.vm0.");
    EXPECT_FALSE(reg.has("kvm.vm0.exits"));
    EXPECT_FALSE(reg.has("kvm.vm0.injections"));
    EXPECT_TRUE(reg.has("kvm.vm1.exits"));
}

TEST(StatRegistry, DumpTextGolden)
{
    StatRegistry reg;
    Counter c;
    c.inc(12);
    Distribution d;
    d.sample(1.0);
    d.sample(2.0);
    d.sample(3.0);
    reg.add("rmm.rmiCalls", c);
    reg.add("io.latency", d);
    const std::string expect =
        "io.latency                                       "
        "count 3 mean 2.000 p50 2.000 p95 2.900 p99 2.980 max 3.000\n"
        "rmm.rmiCalls                                     12\n";
    EXPECT_EQ(reg.dumpText(), expect);
}

TEST(StatRegistry, DumpJsonIsWellFormedAndTyped)
{
    StatRegistry reg;
    Counter c;
    c.inc(3);
    Accumulator a;
    a.sample(1.5);
    a.sample(2.5);
    LatencyStat l;
    l.sample(2 * usec);
    std::uint64_t raw = 9;
    reg.add("x.counter", c);
    reg.add("x.accum", a);
    reg.add("x.lat", l);
    reg.addValue("x.raw", raw);
    const std::string j = reg.dumpJson();
    EXPECT_NE(j.find("\"x.counter\": {\"kind\": \"counter\", "
                     "\"value\": 3}"),
              std::string::npos)
        << j;
    EXPECT_NE(j.find("\"x.accum\": {\"kind\": \"accumulator\""),
              std::string::npos);
    EXPECT_NE(j.find("\"x.lat\": {\"kind\": \"latency\""),
              std::string::npos);
    EXPECT_NE(j.find("\"x.raw\": {\"kind\": \"value\", \"value\": 9}"),
              std::string::npos);
    // Balanced braces, terminated by a newline.
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j[j.size() - 2], '}');
}

TEST(StatGroup, RegistersUnderPrefixAndUnregistersOnDestruction)
{
    StatRegistry reg;
    Counter keep;
    reg.add("keep.me", keep);
    {
        Counter c;
        LatencyStat l;
        StatGroup g(reg, "rmm");
        g.add("exitsToHost", c);
        g.add("runToRun", l);
        EXPECT_TRUE(reg.has("rmm.exitsToHost"));
        EXPECT_TRUE(reg.has("rmm.runToRun"));
        EXPECT_EQ(reg.size(), 3u);
    }
    // The group's entries are gone; unrelated entries survive.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.has("keep.me"));
}

TEST(StatGroup, UnattachedGroupIsANoOp)
{
    StatGroup g;
    Counter c;
    g.add("anything", c); // must not crash or register anywhere
    EXPECT_FALSE(g.attached());
}

TEST(StatGroup, ReattachDropsPreviousEntries)
{
    StatRegistry reg;
    Counter c;
    StatGroup g(reg, "old");
    g.add("stat", c);
    EXPECT_TRUE(reg.has("old.stat"));
    g.attach(reg, "new");
    EXPECT_FALSE(reg.has("old.stat"));
    g.add("stat", c);
    EXPECT_TRUE(reg.has("new.stat"));
}

TEST(StatGroup, MoveTransfersOwnership)
{
    StatRegistry reg;
    Counter c;
    StatGroup a(reg, "grp");
    a.add("stat", c);
    StatGroup b(std::move(a));
    EXPECT_TRUE(reg.has("grp.stat"));
    a.clear(); // moved-from group owns nothing
    EXPECT_TRUE(reg.has("grp.stat"));
    b.clear();
    EXPECT_FALSE(reg.has("grp.stat"));
}

TEST(StatGroup, MoveAssignReplacesTargetEntries)
{
    StatRegistry reg;
    Counter c1, c2;
    StatGroup a(reg, "a");
    StatGroup b(reg, "b");
    a.add("stat", c1);
    b.add("stat", c2);
    b = std::move(a);
    EXPECT_FALSE(reg.has("b.stat"));
    EXPECT_EQ(reg.counter("a.stat"), &c1);
    EXPECT_FALSE(a.attached());
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, LookupMatchesPrefixOnlyAtDotBoundary)
{
    StatRegistry reg;
    Counter c1, c2;
    StatGroup g1(reg, "kvm.vm1");
    StatGroup g10(reg, "kvm.vm10");
    g1.add("exits", c1);
    g10.add("exits", c2);
    EXPECT_EQ(reg.counter("kvm.vm1.exits"), &c1);
    EXPECT_EQ(reg.counter("kvm.vm10.exits"), &c2);
    EXPECT_FALSE(reg.has("kvm.vm1-exits"));
    EXPECT_FALSE(reg.has("kvm.vm1"));
    // removePrefix is a plain string prefix, as its contract says.
    reg.removePrefix("kvm.vm1");
    EXPECT_EQ(reg.size(), 0u);
}

TEST(StatRegistry, WriteFileReportsAFullDisk)
{
    StatRegistry reg;
    Counter c;
    reg.add("one.stat", c);
    // Fits in the stdio buffer, so the error surfaces at fclose.
    EXPECT_FALSE(reg.writeFile("/dev/full"));

    // Larger than the buffer, so fwrite itself comes up short.
    std::vector<Counter> many(512);
    for (std::size_t i = 0; i < many.size(); ++i)
        reg.add("many.stat" + std::to_string(i), many[i]);
    EXPECT_FALSE(reg.writeFile("/dev/full"));
}

// ------------------------------------------------- duplicate-name assert

TEST(StatRegistryDeathTest, LooseNameAddedTwice)
{
    StatRegistry reg;
    Counter c1, c2;
    reg.add("x.y", c1);
    EXPECT_DEATH(reg.add("x.y", c2), "duplicate stat name 'x.y'");
}

TEST(StatRegistryDeathTest, GroupAddsALeafTwice)
{
    StatRegistry reg;
    Counter c;
    std::uint64_t v = 0;
    StatGroup g(reg, "grp");
    g.add("s", c);
    EXPECT_DEATH(g.addValue("s", v), "duplicate stat name 'grp.s'");
}

TEST(StatRegistryDeathTest, TwoGroupsWithOnePrefixAndLeaf)
{
    StatRegistry reg;
    Counter c1, c2;
    StatGroup g1(reg, "kvm.vm1");
    StatGroup g2(reg, "kvm.vm1");
    g1.add("exits", c1);
    EXPECT_DEATH(g2.add("exits", c2), "duplicate stat name 'kvm.vm1.exits'");
}

TEST(StatRegistryDeathTest, DottedLeafMeetsLongerPrefix)
{
    // "a" + "b.c" and "a.b" + "c" name the same stat, whichever group
    // attached first and whichever registered first.
    for (const bool outerFirst : {true, false}) {
        for (const bool outerAddsFirst : {true, false}) {
            StatRegistry reg;
            Counter c1, c2;
            std::unique_ptr<StatGroup> outer, inner;
            if (outerFirst) {
                outer = std::make_unique<StatGroup>(reg, "a");
                inner = std::make_unique<StatGroup>(reg, "a.b");
            } else {
                inner = std::make_unique<StatGroup>(reg, "a.b");
                outer = std::make_unique<StatGroup>(reg, "a");
            }
            if (outerAddsFirst) {
                outer->add("b.c", c1);
                EXPECT_DEATH(inner->add("c", c2),
                             "duplicate stat name 'a.b.c'");
            } else {
                inner->add("c", c1);
                EXPECT_DEATH(outer->add("b.c", c2),
                             "duplicate stat name 'a.b.c'");
            }
        }
    }
}

TEST(StatRegistryDeathTest, LooseNameMeetsGroupLeaf)
{
    {
        StatRegistry reg;
        Counter c1, c2;
        reg.add("x.y", c1);
        StatGroup g(reg, "x");
        EXPECT_DEATH(g.add("y", c2), "duplicate stat name 'x.y'");
    }
    {
        StatRegistry reg;
        Counter c1, c2;
        StatGroup g(reg, "x");
        g.add("y", c1);
        EXPECT_DEATH(reg.add("x.y", c2), "duplicate stat name 'x.y'");
    }
}

TEST(StatRegistry, NearMissNamesDoNotCollide)
{
    StatRegistry reg;
    Counter c1, c2, c3, c4;
    StatGroup a(reg, "a");
    StatGroup ab(reg, "ab");
    StatGroup vm1(reg, "kvm.vm1");
    StatGroup vm10(reg, "kvm.vm10");
    a.add("b.c", c1);  // a.b.c
    ab.add("c", c2);   // ab.c
    vm1.add("0.x", c3); // kvm.vm1.0.x
    vm10.add("x", c4); // kvm.vm10.x
    const std::vector<std::string> expect{"a.b.c", "ab.c", "kvm.vm1.0.x",
                                          "kvm.vm10.x"};
    EXPECT_EQ(reg.names(), expect);
}

// ------------------------------------------------ reference-model property

namespace {

/** Prefixes that meet at '.' boundaries: "a.b" extends "a", "ab" does
 * not; "kvm.vm10" does not extend "kvm.vm1". */
const std::vector<std::string> kPrefixes{"",        "a",       "a.b", "ab",
                                         "kvm",     "kvm.vm1", "kvm.vm10"};
/** Leaves, some dotted, so that "a" + "b.c" names what "a.b" + "c"
 * does and "kvm" + "vm1.x" what "kvm.vm1" + "x" does. */
const std::vector<std::string> kLeaves{"b", "c", "b.c", "x", "vm1.x", "0.x"};

std::string
join(const std::string& prefix, const std::string& leaf)
{
    return prefix.empty() ? leaf : prefix + "." + leaf;
}

/** Stats to register, of every kind, each with a distinct value. */
struct StatPool {
    static constexpr std::size_t perKind = 3;
    Counter counters[perKind];
    Accumulator accumulators[perKind];
    Distribution distributions[perKind];
    LatencyStat latencies[perKind];
    std::uint64_t values[perKind] = {};

    StatPool()
    {
        for (std::size_t i = 0; i < perKind; ++i) {
            const double x = static_cast<double>(i + 1);
            counters[i].inc(i + 1);
            accumulators[i].sample(x);
            accumulators[i].sample(2 * x);
            distributions[i].sample(x);
            distributions[i].sample(3 * x);
            latencies[i].sample((i + 1) * usec);
            values[i] = 100 + i;
        }
    }

    const void*
    ptr(StatKind k, std::size_t i) const
    {
        switch (k) {
          case StatKind::Counter: return &counters[i];
          case StatKind::Accumulator: return &accumulators[i];
          case StatKind::Distribution: return &distributions[i];
          case StatKind::Latency: return &latencies[i];
          case StatKind::Value: return &values[i];
        }
        return nullptr;
    }

    /** Register stat (k, i) as @p name through @p add / @p addValue. */
    template <typename Target>
    void
    addTo(Target& t, const std::string& name, StatKind k,
          std::size_t i) const
    {
        switch (k) {
          case StatKind::Counter: t.add(name, counters[i]); break;
          case StatKind::Accumulator: t.add(name, accumulators[i]); break;
          case StatKind::Distribution: t.add(name, distributions[i]); break;
          case StatKind::Latency: t.add(name, latencies[i]); break;
          case StatKind::Value: t.addValue(name, values[i]); break;
        }
    }
};

/**
 * Drives a StatRegistry and up to six StatGroups through seeded random
 * attach, re-attach, add, addValue, loose add, remove, removePrefix,
 * clear, move-construct, move-assign and destroy operations, and after
 * every one compares the registry with a std::map kept here: size(),
 * names(), has() and find() (kind and pointer) for every name the
 * prefixes and leaves can form plus near misses that differ only at
 * the '.' boundary, and both dumps, which must be the model's entries,
 * in name order, each as a one-entry registry prints it. A bounded
 * number of adds the model refuses as duplicates are run as death
 * tests, so the duplicate check is exercised across re-attaches and
 * moves too.
 */
class Harness
{
  public:
    explicit Harness(std::uint64_t seed) : rng_(seed)
    {
        for (const std::string& p : kPrefixes) {
            universe_.push_back(p);
            for (const std::string& l : kLeaves) {
                universe_.push_back(join(p, l));
                if (!p.empty())
                    universe_.push_back(p + "_" + l);
            }
        }
    }

    void
    step()
    {
        const std::size_t op = pick(20);
        const std::size_t s = pick(slots_.size());
        if (op < 3)
            attach(s);
        else if (op < 10)
            addToGroup(s);
        else if (op < 12)
            addLoose();
        else if (op == 12)
            removeOne();
        else if (op == 13)
            removePrefix();
        else if (op == 14)
            clear(s);
        else if (op < 17)
            move(s, pick(slots_.size()), op == 15);
        else
            destroy(s);
    }

    /** Compare every observable with the model (fatal on mismatch). */
    void
    check() const
    {
        ASSERT_EQ(reg_.size(), model_.size());
        std::vector<std::string> names;
        std::string text, json;
        for (const auto& [name, e] : model_) {
            names.push_back(name);
            StatRegistry one;
            pool_.addTo(one, name, e.kind, e.index);
            text += one.dumpText();
            const std::string j = one.dumpJson();
            // Strip the one-entry object's "{\n" and "\n}\n".
            json += (json.empty() ? "" : ",\n") + j.substr(2, j.size() - 5);
        }
        ASSERT_EQ(reg_.names(), names);
        for (const std::string& n : universe_) {
            const auto it = model_.find(n);
            const StatRegistry::StatRef r = reg_.find(n);
            ASSERT_EQ(reg_.has(n), it != model_.end()) << n;
            if (it == model_.end()) {
                ASSERT_FALSE(r) << n;
                continue;
            }
            ASSERT_TRUE(r) << n;
            ASSERT_EQ(r.kind, it->second.kind) << n;
            ASSERT_EQ(r.ptr, pool_.ptr(it->second.kind, it->second.index))
                << n;
        }
        ASSERT_EQ(reg_.dumpText(), text);
        ASSERT_EQ(reg_.dumpJson(), "{\n" + json + "\n}\n");
    }

  private:
    static constexpr int loose = -1;

    struct Entry {
        StatKind kind;
        std::size_t index;
        int owner; ///< slot index, or `loose`
    };

    struct Slot {
        std::unique_ptr<StatGroup> group;
        bool attached = false;
        std::string prefix;
    };

    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(rng_.uniformInt(0, n - 1));
    }

    void
    dropOwnedBy(int owner)
    {
        std::erase_if(model_, [owner](const auto& kv) {
            return kv.second.owner == owner;
        });
    }

    void
    attach(std::size_t s)
    {
        Slot& slot = slots_[s];
        const std::string& prefix = kPrefixes[pick(kPrefixes.size())];
        dropOwnedBy(static_cast<int>(s));
        if (!slot.group && pick(2) == 0) {
            slot.group = std::make_unique<StatGroup>(reg_, prefix);
        } else {
            if (!slot.group)
                slot.group = std::make_unique<StatGroup>();
            slot.group->attach(reg_, prefix);
        }
        slot.attached = true;
        slot.prefix = prefix;
    }

    /**
     * Run @p add unless the model holds @p name already; then run it
     * as a death test while the budget lasts.
     */
    template <typename Add>
    void
    addChecked(const std::string& name, Add add)
    {
        if (!model_.count(name)) {
            add();
            return;
        }
        if (deathBudget_ > 0) {
            --deathBudget_;
            EXPECT_DEATH(add(), "duplicate stat name");
        }
    }

    void
    addToGroup(std::size_t s)
    {
        Slot& slot = slots_[s];
        if (!slot.group)
            return;
        const std::string& leaf = kLeaves[pick(kLeaves.size())];
        const auto kind = static_cast<StatKind>(pick(5));
        const std::size_t index = pick(StatPool::perKind);
        if (!slot.attached) {
            pool_.addTo(*slot.group, leaf, kind, index); // a no-op
            return;
        }
        const std::string name = join(slot.prefix, leaf);
        addChecked(name, [&] {
            pool_.addTo(*slot.group, leaf, kind, index);
            model_[name] = {kind, index, static_cast<int>(s)};
        });
    }

    void
    addLoose()
    {
        const std::string name = join(kPrefixes[pick(kPrefixes.size())],
                                      kLeaves[pick(kLeaves.size())]);
        const auto kind = static_cast<StatKind>(pick(5));
        const std::size_t index = pick(StatPool::perKind);
        addChecked(name, [&] {
            pool_.addTo(reg_, name, kind, index);
            model_[name] = {kind, index, loose};
        });
    }

    void
    removeOne()
    {
        const std::string& name = universe_[pick(universe_.size())];
        reg_.remove(name);
        model_.erase(name);
    }

    void
    removePrefix()
    {
        static const std::vector<std::string> prefixes{
            "", "a", "a.", "a.b", "ab", "k", "kvm.vm1", "kvm.vm1.", "b"};
        const std::string& p = prefixes[pick(prefixes.size())];
        reg_.removePrefix(p);
        std::erase_if(model_, [&p](const auto& kv) {
            return kv.first.starts_with(p);
        });
    }

    void
    clear(std::size_t s)
    {
        if (!slots_[s].group)
            return;
        slots_[s].group->clear();
        dropOwnedBy(static_cast<int>(s));
    }

    /** Move slot @p from into slot @p to: constructing a new group
     * there if @p construct (dropping any group it held), else
     * assigning into its group. */
    void
    move(std::size_t from, std::size_t to, bool construct)
    {
        Slot& src = slots_[from];
        Slot& dst = slots_[to];
        if (!src.group || (!construct && !dst.group))
            return;
        if (from == to) {
            if (!construct) {
                StatGroup& self = *src.group;
                self = std::move(*src.group); // self-move: no change
            }
            return;
        }
        dropOwnedBy(static_cast<int>(to));
        if (construct)
            dst.group = std::make_unique<StatGroup>(std::move(*src.group));
        else
            *dst.group = std::move(*src.group);
        for (auto& [name, e] : model_) {
            if (e.owner == static_cast<int>(from))
                e.owner = static_cast<int>(to);
        }
        dst.attached = src.attached;
        dst.prefix = src.prefix;
        src.attached = false;
    }

    void
    destroy(std::size_t s)
    {
        slots_[s].group.reset();
        slots_[s].attached = false;
        dropOwnedBy(static_cast<int>(s));
    }

    Rng rng_;
    StatPool pool_;
    // Declared after the pool and before the slots: stats outlive the
    // registry's entries and the registry outlives every group.
    StatRegistry reg_;
    std::vector<Slot> slots_ = std::vector<Slot>(6);
    std::map<std::string, Entry> model_;
    std::vector<std::string> universe_;
    int deathBudget_ = 8;
};

} // namespace

TEST(StatRegistryProperty, MatchesSortedMapModel)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Harness h(seed);
        for (int i = 0; i < 2000; ++i) {
            h.step();
            h.check();
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}
