#include "rmm/rtt.hh"

#include <algorithm>

namespace cg::rmm {

namespace {

/** First entry of the index-sorted @p v not below @p key. */
template <typename Vec>
auto
seek(Vec& v, std::uint64_t key)
{
    return std::lower_bound(
        v.begin(), v.end(), key,
        [](const auto& e, std::uint64_t k) { return e.first < k; });
}

/** The entry of the index-sorted @p v at @p key, or v.end(). */
template <typename Vec>
auto
lookup(Vec& v, std::uint64_t key)
{
    auto it = seek(v, key);
    return it != v.end() && it->first == key ? it : v.end();
}

} // namespace

std::optional<PhysAddr>
relocated(const Relocation& reloc, PhysAddr pa)
{
    auto it = lookup(reloc, pa);
    if (it == reloc.end())
        return std::nullopt;
    return it->second;
}

Rtt::Rtt() = default;

const Rtt::Node*
Rtt::walk(Ipa ipa, int to_level) const
{
    const Node* n = &root_;
    for (int level = rttStartLevel; level < to_level; ++level) {
        auto it = lookup(n->children, rttIndex(ipa, level));
        if (it == n->children.end())
            return nullptr;
        n = it->second.get();
    }
    return n;
}

Rtt::Node*
Rtt::walk(Ipa ipa, int to_level)
{
    return const_cast<Node*>(
        static_cast<const Rtt*>(this)->walk(ipa, to_level));
}

RmiStatus
Rtt::createTable(Ipa ipa, int level, PhysAddr table_granule)
{
    if (level <= rttStartLevel || level > rttLeafLevel)
        return RmiStatus::BadArgs;
    if (!granuleAligned(table_granule))
        return RmiStatus::BadAddress;
    Node* parent = walk(ipa, level - 1);
    if (!parent)
        return RmiStatus::NoMemory;
    const std::uint64_t idx = rttIndex(ipa, level - 1);
    auto it = seek(parent->children, idx);
    if (it != parent->children.end() && it->first == idx)
        return RmiStatus::BadState;
    auto node = std::make_unique<Node>();
    node->granule = table_granule;
    parent->children.emplace(it, idx, std::move(node));
    ++tables_;
    return RmiStatus::Success;
}

RmiStatus
Rtt::mapPage(Ipa ipa, PhysAddr pa)
{
    if (!granuleAligned(pa))
        return RmiStatus::BadAddress;
    Node* leaf_table = walk(ipa, rttLeafLevel);
    if (!leaf_table)
        return RmiStatus::NoMemory;
    const std::uint64_t idx = rttIndex(ipa, rttLeafLevel);
    auto it = seek(leaf_table->leaves, idx);
    if (it != leaf_table->leaves.end() && it->first == idx)
        return RmiStatus::BadState;
    leaf_table->leaves.emplace(it, idx, pa);
    ++mapped_;
    return RmiStatus::Success;
}

RmiStatus
Rtt::unmapPage(Ipa ipa)
{
    Node* leaf_table = walk(ipa, rttLeafLevel);
    if (!leaf_table)
        return RmiStatus::NoMemory;
    auto it = lookup(leaf_table->leaves, rttIndex(ipa, rttLeafLevel));
    if (it == leaf_table->leaves.end())
        return RmiStatus::BadState;
    leaf_table->leaves.erase(it);
    --mapped_;
    return RmiStatus::Success;
}

std::optional<PhysAddr>
Rtt::translate(Ipa ipa) const
{
    const Node* leaf_table = walk(ipa, rttLeafLevel);
    if (!leaf_table)
        return std::nullopt;
    auto it = lookup(leaf_table->leaves, rttIndex(ipa, rttLeafLevel));
    if (it == leaf_table->leaves.end())
        return std::nullopt;
    return it->second | (ipa & (granuleSize - 1));
}

bool
Rtt::tablesComplete(Ipa ipa) const
{
    return walk(ipa, rttLeafLevel) != nullptr;
}

std::size_t
Rtt::relocateNode(Node& n, const Relocation& reloc)
{
    std::size_t rewrites = 0;
    if (n.granule != 0) {
        if (auto to = relocated(reloc, n.granule)) {
            n.granule = *to;
            ++rewrites;
        }
    }
    for (auto& [idx, pa] : n.leaves) {
        if (auto to = relocated(reloc, pa)) {
            pa = *to;
            ++rewrites;
        }
    }
    for (auto& [idx, child] : n.children)
        rewrites += relocateNode(*child, reloc);
    return rewrites;
}

std::size_t
Rtt::relocate(const Relocation& reloc)
{
    return relocateNode(root_, reloc);
}

int
Rtt::walkLevel(Ipa ipa) const
{
    const Node* n = &root_;
    for (int level = rttStartLevel; level < rttLeafLevel; ++level) {
        auto it = lookup(n->children, rttIndex(ipa, level));
        if (it == n->children.end())
            return level + 1;
        n = it->second.get();
    }
    if (lookup(n->leaves, rttIndex(ipa, rttLeafLevel)) != n->leaves.end())
        return rttLeafLevel + 1;
    return rttLeafLevel;
}

} // namespace cg::rmm
