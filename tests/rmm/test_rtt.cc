/**
 * @file
 * Unit tests for realm translation tables, and a property test pinning
 * the sorted-vector table levels to the map-based Rtt they replaced.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "rmm/rtt.hh"
#include "sim/rng.hh"

using namespace cg::rmm;

namespace {

/** Build tables for the walk of @p ipa down to the leaf level. */
void
buildTables(Rtt& rtt, Ipa ipa, PhysAddr base = 0x100000)
{
    for (int level = 1; level <= rttLeafLevel; ++level) {
        const RmiStatus s = rtt.createTable(
            ipa, level, base + static_cast<PhysAddr>(level) * 0x1000);
        ASSERT_TRUE(s == RmiStatus::Success || s == RmiStatus::BadState);
    }
}

} // namespace

TEST(Rtt, EmptyTranslationFaults)
{
    Rtt rtt;
    EXPECT_FALSE(rtt.translate(0x8000).has_value());
    EXPECT_EQ(rtt.walkLevel(0x8000), 1); // first missing table
}

TEST(Rtt, MapRequiresTables)
{
    Rtt rtt;
    EXPECT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::NoMemory);
}

TEST(Rtt, CreateTablesThenMap)
{
    Rtt rtt;
    buildTables(rtt, 0x8000);
    EXPECT_EQ(rtt.walkLevel(0x8000), rttLeafLevel);
    EXPECT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::Success);
    EXPECT_EQ(rtt.walkLevel(0x8000), rttLeafLevel + 1);
    auto pa = rtt.translate(0x8000);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x200000u);
}

TEST(Rtt, TranslatePreservesPageOffset)
{
    Rtt rtt;
    buildTables(rtt, 0x8000);
    ASSERT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::Success);
    auto pa = rtt.translate(0x8abc);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x200abcu);
}

TEST(Rtt, TablesMustBeCreatedTopDown)
{
    Rtt rtt;
    // Level 2 before level 1: the parent is missing.
    EXPECT_EQ(rtt.createTable(0x8000, 2, 0x100000),
              RmiStatus::NoMemory);
    EXPECT_EQ(rtt.createTable(0x8000, 1, 0x100000), RmiStatus::Success);
    EXPECT_EQ(rtt.createTable(0x8000, 2, 0x101000), RmiStatus::Success);
}

TEST(Rtt, DuplicateTableRejected)
{
    Rtt rtt;
    ASSERT_EQ(rtt.createTable(0x8000, 1, 0x100000), RmiStatus::Success);
    EXPECT_EQ(rtt.createTable(0x8000, 1, 0x101000), RmiStatus::BadState);
}

TEST(Rtt, BadLevelOrAlignmentRejected)
{
    Rtt rtt;
    EXPECT_EQ(rtt.createTable(0x8000, 0, 0x100000), RmiStatus::BadArgs);
    EXPECT_EQ(rtt.createTable(0x8000, 4, 0x100000), RmiStatus::BadArgs);
    EXPECT_EQ(rtt.createTable(0x8000, 1, 0x100123),
              RmiStatus::BadAddress);
    buildTables(rtt, 0x8000);
    EXPECT_EQ(rtt.mapPage(0x8000, 0x200001), RmiStatus::BadAddress);
}

TEST(Rtt, DoubleMapRejected)
{
    Rtt rtt;
    buildTables(rtt, 0x8000);
    ASSERT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::Success);
    EXPECT_EQ(rtt.mapPage(0x8000, 0x300000), RmiStatus::BadState);
}

TEST(Rtt, UnmapThenFaultAgain)
{
    Rtt rtt;
    buildTables(rtt, 0x8000);
    ASSERT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::Success);
    EXPECT_EQ(rtt.unmapPage(0x8000), RmiStatus::Success);
    EXPECT_FALSE(rtt.translate(0x8000).has_value());
    EXPECT_EQ(rtt.unmapPage(0x8000), RmiStatus::BadState);
    EXPECT_EQ(rtt.mappedPages(), 0u);
}

TEST(Rtt, NeighbouringPagesShareTables)
{
    Rtt rtt;
    buildTables(rtt, 0x8000);
    ASSERT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::Success);
    // Same 2 MiB region: no new tables needed.
    EXPECT_EQ(rtt.mapPage(0x9000, 0x201000), RmiStatus::Success);
    EXPECT_EQ(rtt.tableCount(), 3u);
    EXPECT_EQ(rtt.mappedPages(), 2u);
}

TEST(Rtt, DistantPagesNeedSeparateTables)
{
    Rtt rtt;
    buildTables(rtt, 0x8000);
    ASSERT_EQ(rtt.mapPage(0x8000, 0x200000), RmiStatus::Success);
    // 1 TiB away: the level-1 walk diverges.
    const Ipa far = 1ull << 40;
    EXPECT_EQ(rtt.mapPage(far, 0x300000), RmiStatus::NoMemory);
    buildTables(rtt, far, 0x900000);
    EXPECT_EQ(rtt.mapPage(far, 0x300000), RmiStatus::Success);
    EXPECT_GT(rtt.tableCount(), 3u);
}

TEST(Rtt, IndexExtraction)
{
    // ipa = idx3 << 12 | idx2 << 21 | idx1 << 30 | idx0 << 39
    const Ipa ipa = (5ull << 39) | (17ull << 30) | (100ull << 21) |
                    (511ull << 12) | 0xabc;
    EXPECT_EQ(rttIndex(ipa, 0), 5u);
    EXPECT_EQ(rttIndex(ipa, 1), 17u);
    EXPECT_EQ(rttIndex(ipa, 2), 100u);
    EXPECT_EQ(rttIndex(ipa, 3), 511u);
}

// ------------------------------------------------ reference-model check

namespace {

/**
 * The map-based Rtt the sorted-vector levels replaced, verbatim but
 * for its name, kept as the behavioural reference: one std::map node
 * per table entry and leaf, and relocation through a std::map.
 */
class MapRtt
{
  public:
    RmiStatus
    createTable(Ipa ipa, int level, PhysAddr table_granule)
    {
        if (level <= rttStartLevel || level > rttLeafLevel)
            return RmiStatus::BadArgs;
        if (!granuleAligned(table_granule))
            return RmiStatus::BadAddress;
        Node* parent = walk(ipa, level - 1);
        if (!parent)
            return RmiStatus::NoMemory;
        const std::uint64_t idx = rttIndex(ipa, level - 1);
        if (parent->children.count(idx))
            return RmiStatus::BadState;
        auto node = std::make_unique<Node>();
        node->granule = table_granule;
        parent->children[idx] = std::move(node);
        ++tables_;
        return RmiStatus::Success;
    }

    RmiStatus
    mapPage(Ipa ipa, PhysAddr pa)
    {
        if (!granuleAligned(pa))
            return RmiStatus::BadAddress;
        Node* leaf_table = walk(ipa, rttLeafLevel);
        if (!leaf_table)
            return RmiStatus::NoMemory;
        const std::uint64_t idx = rttIndex(ipa, rttLeafLevel);
        if (leaf_table->leaves.count(idx))
            return RmiStatus::BadState;
        leaf_table->leaves[idx] = pa;
        ++mapped_;
        return RmiStatus::Success;
    }

    RmiStatus
    unmapPage(Ipa ipa)
    {
        Node* leaf_table = walk(ipa, rttLeafLevel);
        if (!leaf_table)
            return RmiStatus::NoMemory;
        auto it = leaf_table->leaves.find(rttIndex(ipa, rttLeafLevel));
        if (it == leaf_table->leaves.end())
            return RmiStatus::BadState;
        leaf_table->leaves.erase(it);
        --mapped_;
        return RmiStatus::Success;
    }

    std::optional<PhysAddr>
    translate(Ipa ipa) const
    {
        const Node* leaf_table = walk(ipa, rttLeafLevel);
        if (!leaf_table)
            return std::nullopt;
        auto it = leaf_table->leaves.find(rttIndex(ipa, rttLeafLevel));
        if (it == leaf_table->leaves.end())
            return std::nullopt;
        return it->second | (ipa & (granuleSize - 1));
    }

    bool
    tablesComplete(Ipa ipa) const
    {
        return walk(ipa, rttLeafLevel) != nullptr;
    }

    int
    walkLevel(Ipa ipa) const
    {
        const Node* n = &root_;
        for (int level = rttStartLevel; level < rttLeafLevel; ++level) {
            auto it = n->children.find(rttIndex(ipa, level));
            if (it == n->children.end())
                return level + 1;
            n = it->second.get();
        }
        if (n->leaves.count(rttIndex(ipa, rttLeafLevel)))
            return rttLeafLevel + 1;
        return rttLeafLevel;
    }

    std::size_t mappedPages() const { return mapped_; }
    std::size_t tableCount() const { return tables_; }

    std::size_t
    relocate(const std::map<PhysAddr, PhysAddr>& map)
    {
        return relocateNode(root_, map);
    }

  private:
    struct Node {
        PhysAddr granule = 0;
        std::map<std::uint64_t, std::unique_ptr<Node>> children;
        std::map<std::uint64_t, PhysAddr> leaves; // level 3 only
    };

    const Node*
    walk(Ipa ipa, int to_level) const
    {
        const Node* n = &root_;
        for (int level = rttStartLevel; level < to_level; ++level) {
            auto it = n->children.find(rttIndex(ipa, level));
            if (it == n->children.end())
                return nullptr;
            n = it->second.get();
        }
        return n;
    }

    Node*
    walk(Ipa ipa, int to_level)
    {
        return const_cast<Node*>(
            static_cast<const MapRtt*>(this)->walk(ipa, to_level));
    }

    static std::size_t
    relocateNode(Node& n, const std::map<PhysAddr, PhysAddr>& map)
    {
        std::size_t rewrites = 0;
        if (n.granule != 0) {
            auto it = map.find(n.granule);
            if (it != map.end()) {
                n.granule = it->second;
                ++rewrites;
            }
        }
        for (auto& [idx, pa] : n.leaves) {
            auto it = map.find(pa);
            if (it != map.end()) {
                pa = it->second;
                ++rewrites;
            }
        }
        for (auto& [idx, child] : n.children)
            rewrites += relocateNode(*child, map);
        return rewrites;
    }

    Node root_;
    std::size_t mapped_ = 0;
    std::size_t tables_ = 0;
};

/** Index shift of @p level's table entries. */
constexpr int
levelShift(int level)
{
    return rttPageShift + rttLevelBits * (rttLeafLevel - level);
}

/** Names the level-@p level table that holds @p ipa's entry. */
constexpr std::uint64_t
tableOf(Ipa ipa, int level)
{
    return ipa >> (levelShift(level) + rttLevelBits);
}

/** How often each interesting path ran, so a sequence that never
 * reaches one cannot pass vacuously. */
struct RttCoverage {
    std::size_t tables[rttLeafLevel + 1] = {}; ///< created, per level
    std::size_t maps = 0;
    std::size_t unmaps = 0;
    /** Successful inserts below an existing sibling's index. */
    std::size_t middleInserts = 0;
    std::size_t refused = 0; ///< any non-Success status
    std::size_t relocations = 0; ///< relocate() that rewrote something
    std::size_t relocatedLeaves = 0; ///< leaf rewrites, all relocations
    std::size_t idleRelocations = 0; ///< relocate() that rewrote nothing
};

class RttHarness
{
  public:
    explicit RttHarness(std::uint64_t seed) : rng_(seed)
    {
        // Indices picked out of order at every level, so each table
        // level gets entries inserted before, between and after its
        // existing ones.
        const std::uint64_t i0[] = {0, 3, 511};
        const std::uint64_t i1[] = {200, 0, 7};
        const std::uint64_t i2[] = {100, 511, 0, 1};
        for (std::uint64_t a : i0) {
            for (std::uint64_t b : i1) {
                for (std::uint64_t c : i2) {
                    for (int k = 0; k < 3; ++k) {
                        const std::uint64_t d = rng_.uniformInt(0, 511);
                        ipas_.push_back(a << levelShift(0) |
                                        b << levelShift(1) |
                                        c << levelShift(2) |
                                        d << levelShift(3));
                    }
                }
            }
        }
        for (std::size_t i = 0; i < 48; ++i)
            pas_.push_back(0x200000 + granuleSize * (i * 37 % 48));
        pas_.push_back(0); // a leaf at 0 relocates; a table at 0 not
    }

    void
    run(std::size_t steps)
    {
        for (step_ = 0; step_ < steps; ++step_) {
            switch (rng_.uniformInt(0, 9)) {
              case 0:
              case 1:
              case 2:
                createTable();
                break;
              case 3:
              case 4:
              case 5:
                mapPage();
                break;
              case 6:
              case 7:
                unmapPage();
                break;
              case 8:
                relocate();
                break;
              default:
                expectSame("probe");
                break;
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    const RttCoverage& coverage() const { return cov_; }

  private:
    Ipa
    ipa()
    {
        // Any offset within the page: only the page number matters.
        return ipas_[rng_.uniformInt(0, ipas_.size() - 1)] |
               rng_.uniformInt(0, granuleSize - 1);
    }

    PhysAddr
    pa()
    {
        const PhysAddr a = pas_[rng_.uniformInt(0, pas_.size() - 1)];
        return rng_.chance(0.05) ? a + 0x40 : a; // sometimes unaligned
    }

    /** Note a successful insert of @p idx under @p parent. */
    void
    inserted(int level, std::uint64_t parent, std::uint64_t idx)
    {
        std::set<std::uint64_t>& sib = siblings_[{level, parent}];
        if (!sib.empty() && *sib.rbegin() > idx)
            ++cov_.middleInserts;
        sib.insert(idx);
    }

    void
    check(const char* what, RmiStatus got, RmiStatus want)
    {
        EXPECT_EQ(got, want) << what << " at step " << step_;
        if (want != RmiStatus::Success)
            ++cov_.refused;
        expectSame(what);
    }

    void
    createTable()
    {
        const Ipa a = ipa();
        const int level = static_cast<int>(rng_.uniformInt(0, 4));
        const PhysAddr g = pa();
        const RmiStatus want = ref_.createTable(a, level, g);
        check("createTable", rtt_.createTable(a, level, g), want);
        if (want == RmiStatus::Success) {
            ++cov_.tables[level];
            inserted(level - 1, tableOf(a, level - 1),
                     rttIndex(a, level - 1));
        }
    }

    void
    mapPage()
    {
        const Ipa a = ipa();
        const PhysAddr p = pa();
        const RmiStatus want = ref_.mapPage(a, p);
        check("mapPage", rtt_.mapPage(a, p), want);
        if (want == RmiStatus::Success) {
            ++cov_.maps;
            inserted(rttLeafLevel, tableOf(a, rttLeafLevel),
                     rttIndex(a, rttLeafLevel));
        }
    }

    void
    unmapPage()
    {
        const Ipa a = ipa();
        const RmiStatus want = ref_.unmapPage(a);
        check("unmapPage", rtt_.unmapPage(a), want);
        if (want == RmiStatus::Success) {
            ++cov_.unmaps;
            siblings_[{rttLeafLevel, tableOf(a, rttLeafLevel)}].erase(
                rttIndex(a, rttLeafLevel));
        }
    }

    /** A partial relocation: some pool addresses (in use or not) move
     * to fresh ones, which later relocations may move again. */
    void
    relocate()
    {
        std::map<PhysAddr, PhysAddr> map;
        const std::size_t n = rng_.uniformInt(0, 12);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t k = rng_.uniformInt(0, pas_.size() - 1);
            if (map.count(pas_[k]))
                continue;
            map[pas_[k]] = nextFresh_;
            pas_[k] = nextFresh_;
            nextFresh_ += granuleSize;
        }
        std::size_t leaves_before = 0;
        for (const auto& [from, to] : map)
            leaves_before += leavesAt(from);
        const Relocation reloc(map.begin(), map.end());
        const std::size_t want = ref_.relocate(map);
        EXPECT_EQ(rtt_.relocate(reloc), want)
            << "relocate at step " << step_;
        cov_.relocatedLeaves += leaves_before;
        if (want == 0)
            ++cov_.idleRelocations;
        else
            ++cov_.relocations;
        expectSame("relocate");
    }

    /** Probe IPAs whose reference translation lands on page @p pa. */
    std::size_t
    leavesAt(PhysAddr pa) const
    {
        std::size_t n = 0;
        for (Ipa a : ipas_) {
            const auto t = ref_.translate(a);
            n += t && *t == pa ? 1 : 0;
        }
        return n;
    }

    void
    expectSame(const char* what)
    {
        for (Ipa base : ipas_) {
            const Ipa a = base | 0xabc;
            ASSERT_EQ(rtt_.translate(a), ref_.translate(a))
                << what << ": ipa " << std::hex << a << std::dec
                << " at step " << step_;
            ASSERT_EQ(rtt_.walkLevel(a), ref_.walkLevel(a))
                << what << ": ipa " << std::hex << a << std::dec
                << " at step " << step_;
            ASSERT_EQ(rtt_.tablesComplete(a), ref_.tablesComplete(a))
                << what << ": ipa " << std::hex << a << std::dec
                << " at step " << step_;
        }
        ASSERT_EQ(rtt_.mappedPages(), ref_.mappedPages())
            << what << " at step " << step_;
        ASSERT_EQ(rtt_.tableCount(), ref_.tableCount())
            << what << " at step " << step_;
    }

    cg::sim::Rng rng_;
    Rtt rtt_;
    MapRtt ref_;
    std::vector<Ipa> ipas_;
    std::vector<PhysAddr> pas_;
    PhysAddr nextFresh_ = 0x80000000;
    std::map<std::pair<int, std::uint64_t>, std::set<std::uint64_t>>
        siblings_;
    RttCoverage cov_;
    std::size_t step_ = 0;
};

} // namespace

TEST(RttProperty, MatchesMapReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        RttHarness h(seed);
        h.run(1500);
        if (::testing::Test::HasFatalFailure())
            return;
        const RttCoverage& c = h.coverage();
        for (int level = 1; level <= rttLeafLevel; ++level)
            EXPECT_GT(c.tables[level], 0u) << "level " << level;
        EXPECT_GT(c.maps, 0u);
        EXPECT_GT(c.unmaps, 0u);
        EXPECT_GT(c.middleInserts, 0u);
        EXPECT_GT(c.refused, 0u);
        EXPECT_GT(c.relocations, 0u);
        EXPECT_GT(c.relocatedLeaves, 0u);
        EXPECT_GT(c.idleRelocations, 0u);
    }
}

TEST(Rtt, RelocatedLooksUpAscendingPairs)
{
    const Relocation reloc = {{0x1000, 0x9000}, {0x3000, 0xa000}};
    EXPECT_EQ(relocated(reloc, 0x1000), PhysAddr{0x9000});
    EXPECT_EQ(relocated(reloc, 0x3000), PhysAddr{0xa000});
    EXPECT_FALSE(relocated(reloc, 0x2000).has_value());
    EXPECT_FALSE(relocated(reloc, 0x4000).has_value());
    EXPECT_FALSE(relocated({}, 0x1000).has_value());
}
