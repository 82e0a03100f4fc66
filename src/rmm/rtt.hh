/**
 * @file
 * Realm Translation Tables: the stage-2 page tables the RMM maintains
 * for each realm, mapping intermediate physical addresses (IPA) to
 * physical granules.
 *
 * Modelled as the architectural 4-level radix tree with 512 entries per
 * level (4 KiB pages, 48-bit IPA space). Table granules at levels 1-3
 * must be created explicitly (RMI_RTT_CREATE), as in the real interface,
 * so the host's fault-handling RMI traffic is faithfully reproduced.
 * Each table keeps only its populated entries, as vectors sorted by
 * index.
 */

#ifndef CG_RMM_RTT_HH
#define CG_RMM_RTT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "rmm/granule.hh"

namespace cg::rmm {

/** Intermediate physical address within a realm. */
using Ipa = std::uint64_t;

constexpr int rttPageShift = 12;
constexpr int rttLevelBits = 9;
constexpr int rttStartLevel = 0;
constexpr int rttLeafLevel = 3;

/** Index of @p ipa at table @p level. */
constexpr std::uint64_t
rttIndex(Ipa ipa, int level)
{
    const int shift = rttPageShift + rttLevelBits * (rttLeafLevel - level);
    return (ipa >> shift) & ((1ULL << rttLevelBits) - 1);
}

/** Physical-address rewrites (old, new), ascending by old address. */
using Relocation = std::vector<std::pair<PhysAddr, PhysAddr>>;

/** Where @p reloc moves @p pa; nullopt if it does not move it. */
std::optional<PhysAddr> relocated(const Relocation& reloc, PhysAddr pa);

class Rtt
{
  public:
    Rtt();

    /**
     * Install a table granule for the walk of @p ipa at @p level
     * (1..3). Fails with NoMemory if the parent table is absent, or
     * BadState if a table already exists there.
     */
    RmiStatus createTable(Ipa ipa, int level, PhysAddr table_granule);

    /**
     * Map the leaf page containing @p ipa to @p pa. Fails with
     * NoMemory if intermediate tables are missing (the host must
     * RMI_RTT_CREATE them first, which is what generates the RTT RMI
     * traffic the paper's table 2 "synchronous" calls consist of).
     */
    RmiStatus mapPage(Ipa ipa, PhysAddr pa);

    /** Remove the leaf mapping of @p ipa. */
    RmiStatus unmapPage(Ipa ipa);

    /** Translate; nullopt on fault (missing table or page). */
    std::optional<PhysAddr> translate(Ipa ipa) const;

    /** All intermediate tables for @p ipa exist (only the leaf may be
     * missing)? Disambiguates walkLevel() == rttLeafLevel. */
    bool tablesComplete(Ipa ipa) const;

    /**
     * The level at which a walk of @p ipa stops: rttLeafLevel+1 if
     * fully mapped, else the level whose table/entry is missing.
     * Mirrors the walk information RMI faults report to the host.
     */
    int walkLevel(Ipa ipa) const;

    std::size_t mappedPages() const { return mapped_; }
    std::size_t tableCount() const { return tables_; }

    /**
     * Rewrite every table granule and leaf page address through
     * @p reloc, the final step of a committed realm migration.
     * Addresses @p reloc does not list are left untouched. @return
     * the number of rewrites applied.
     */
    std::size_t relocate(const Relocation& reloc);

  private:
    struct Node {
        PhysAddr granule = 0;
        /** Next-level tables, ascending by index. */
        std::vector<std::pair<std::uint64_t, std::unique_ptr<Node>>>
            children;
        /** Leaf pages (level 3 only), ascending by index. */
        std::vector<std::pair<std::uint64_t, PhysAddr>> leaves;
    };

    const Node* walk(Ipa ipa, int to_level) const;
    Node* walk(Ipa ipa, int to_level);
    static std::size_t relocateNode(Node& n, const Relocation& reloc);

    Node root_;
    std::size_t mapped_ = 0;
    std::size_t tables_ = 0;
};

} // namespace cg::rmm

#endif // CG_RMM_RTT_HH
