/**
 * @file
 * The statistics registry: a per-simulation directory of named,
 * hierarchical statistics.
 *
 * Components own their Counter/Accumulator/Distribution/LatencyStat
 * objects exactly as before (stats.hh); the registry holds non-owning,
 * typed references under dotted hierarchical names ("rmm.exitsToHost",
 * "kvm.vm2.exits", "guest.cm.vcpu3.ticksHandled") so that any run can
 * enumerate and dump every statistic in one place — the paper's tables
 * are all read off these objects, and the `--stats <path>` bench flag
 * writes the dump for offline comparison.
 *
 * Layout: the unit of registration is a StatGroup, one per component.
 * A group keeps its own (leaf, kind, pointer) entries and is linked
 * into the registry as one block, so registering a stat appends to
 * its group and destroying a component drops the whole block. No full
 * name is built unless another group's prefix nests with the group's
 * own, and no other group's names are touched. Name-keyed reads
 * (find(), the dumps) resolve over the blocks and are meant for bind
 * and dump time. Names added straight to the registry go into a
 * registry-owned block with an empty prefix.
 *
 * Lifetime: a registered stat must outlive its registry entry. The
 * StatGroup RAII helper makes that automatic — a component keeps a
 * StatGroup member next to its stats and every name the group added is
 * removed when the component is destroyed, so teardown order can never
 * leave the registry pointing at freed memory. The registry must
 * outlive every group attached to it.
 *
 * Registration is pure bookkeeping: it schedules no events, consumes
 * no randomness, and therefore cannot perturb simulated results.
 */

#ifndef CG_SIM_STAT_REGISTRY_HH
#define CG_SIM_STAT_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace cg::sim {

class StatRegistry;

/** Discriminator for what a registered name refers to. */
enum class StatKind { Counter, Accumulator, Distribution, Latency, Value };

/**
 * RAII registration scope: registers stats under a common prefix and
 * removes every one of them on destruction. Embed one per component:
 *
 *     statGroup_.attach(registry, "kvm." + vmName);
 *     statGroup_.add("exits", stats_.exits);       // kvm.<vm>.exits
 *
 * The group is the registry's block for those names: add() appends to
 * the group, and clear(), destruction and moves drop, unlink or relink
 * the block without looking at any other group.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    StatGroup(StatRegistry& r, std::string prefix);
    ~StatGroup();

    StatGroup(StatGroup&& o) noexcept;
    StatGroup& operator=(StatGroup&& o) noexcept;
    StatGroup(const StatGroup&) = delete;
    StatGroup& operator=(const StatGroup&) = delete;

    /** Bind to a registry under @p prefix, dropping prior entries. */
    void attach(StatRegistry& r, std::string prefix);

    bool attached() const { return reg_ != nullptr; }
    const std::string& prefix() const { return prefix_; }

    /** @{ Register "<prefix>.<leaf>"; no-ops when unattached, so
     * components work unregistered (unit tests, ad-hoc assemblies). */
    void add(const std::string& leaf, const Counter& c);
    void add(const std::string& leaf, const Accumulator& a);
    void add(const std::string& leaf, const Distribution& d);
    void add(const std::string& leaf, const LatencyStat& l);
    void addValue(const std::string& leaf, const std::uint64_t& v);
    /** @} */

    /** Remove everything this group registered (it stays attached). */
    void clear();

  private:
    friend class StatRegistry;

    /** One registered stat: its name (the leaf below the prefix; the
     * full name in the registry's dump rows) and its target. */
    struct Entry {
        std::string name;
        StatKind kind;
        const void* ptr;
    };

    void addLeaf(const std::string& leaf, StatKind kind, const void* p);
    /** The entry registered as the full name @p name, or nullptr. */
    const Entry* leafFor(const std::string& name) const;
    std::string fullName(const std::string& leaf) const;
    /** Drop every entry and unlink from the registry. */
    void detach();
    /** Take @p o's entries and its place in the registry. */
    void takeOver(StatGroup& o);

    StatRegistry* reg_ = nullptr;
    std::string prefix_;
    std::vector<Entry> leaves_;
    /** Neighbours in the registry's list of attached groups. */
    StatGroup* prev_ = nullptr;
    StatGroup* next_ = nullptr;
};

class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry&) = delete;
    StatRegistry& operator=(const StatRegistry&) = delete;

    /** @{ Register a stat under @p name (non-owning; name must be
     * unique within the registry). */
    void add(const std::string& name, const Counter& c);
    void add(const std::string& name, const Accumulator& a);
    void add(const std::string& name, const Distribution& d);
    void add(const std::string& name, const LatencyStat& l);
    /** A bare monotonic value kept as a raw integer (legacy stats). */
    void addValue(const std::string& name, const std::uint64_t& v);
    /** @} */

    /** Remove one entry; unknown names are ignored. */
    void remove(const std::string& name);

    /** Remove every entry whose name starts with @p prefix. */
    void removePrefix(const std::string& prefix);

    std::size_t size() const;
    bool has(const std::string& name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    using Kind = StatKind;

    /**
     * Resolved handle to a registered stat: the result of one
     * string-keyed lookup, reusable for the registration's lifetime.
     *
     * String-keyed lookup walks every attached group and compares the
     * name against each group's prefix and then its leaves, which is
     * fine at bind and dump time and poison inside event callbacks.
     * Code that reads a stat repeatedly must call find()
     * once (at construction / bind time) and keep the StatRef; the
     * stat-handle rule of tools/cg-analyze flags lookups that remain
     * inside callback bodies. The handle is invalidated by remove()/
     * removePrefix() of its name — the same lifetime contract as the
     * underlying stat object.
     */
    struct StatRef {
        Kind kind = Kind::Value;
        const void* ptr = nullptr; ///< nullptr: name was not registered

        explicit operator bool() const { return ptr != nullptr; }

        /** @{ Typed access; nullptr if empty or of another kind. */
        const Counter*
        counter() const
        {
            return kind == Kind::Counter
                       ? static_cast<const Counter*>(ptr)
                       : nullptr;
        }
        const Accumulator*
        accumulator() const
        {
            return kind == Kind::Accumulator
                       ? static_cast<const Accumulator*>(ptr)
                       : nullptr;
        }
        const Distribution*
        distribution() const
        {
            return kind == Kind::Distribution
                       ? static_cast<const Distribution*>(ptr)
                       : nullptr;
        }
        const LatencyStat*
        latency() const
        {
            return kind == Kind::Latency
                       ? static_cast<const LatencyStat*>(ptr)
                       : nullptr;
        }
        const std::uint64_t*
        value() const
        {
            return kind == Kind::Value
                       ? static_cast<const std::uint64_t*>(ptr)
                       : nullptr;
        }
        /** @} */
    };

    /** One string-keyed lookup; empty StatRef if @p name is absent. */
    StatRef find(const std::string& name) const;

    /** @{ Typed lookup; nullptr if absent or of another kind.
     * Convenience over find() — same cost, same caching rule. */
    const Counter* counter(const std::string& name) const;
    const Accumulator* accumulator(const std::string& name) const;
    const Distribution* distribution(const std::string& name) const;
    const LatencyStat* latency(const std::string& name) const;
    const std::uint64_t* value(const std::string& name) const;
    /** @} */

    /**
     * Human-readable dump: one line per stat, sorted by name.
     * Counters/values print the count; sample stats print count, mean,
     * spread, and tail percentiles.
     */
    std::string dumpText() const;

    /**
     * Machine-readable dump: one JSON object keyed by stat name, each
     * value an object with a "kind" discriminator and the stat's
     * fields. Deterministic (sorted by name).
     */
    std::string dumpJson() const;

    /**
     * Write the dump to @p path; a ".json" suffix selects the JSON
     * format, anything else the text format.
     * @return false if the file could not be written in full.
     */
    bool writeFile(const std::string& path) const;

  private:
    friend class StatGroup;

    using Entry = StatGroup::Entry;

    /** Every registered stat under its full name, sorted by it (the
     * dump order). */
    std::vector<Entry> sortedRows() const;

    /** The block for names added straight to the registry, under the
     * empty prefix. Attached on first use: every name could collide
     * with it, so while it is attached each registration builds the
     * full name to check against it. */
    StatGroup& loose();

    /** Attached groups, most recently attached first. */
    StatGroup* head_ = nullptr;
    StatGroup loose_;
};

} // namespace cg::sim

#endif // CG_SIM_STAT_REGISTRY_HH
