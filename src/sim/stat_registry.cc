#include "sim/stat_registry.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "sim/logging.hh"

namespace cg::sim {

namespace {

/**
 * Whether names under prefixes @p a and @p b can collide: one prefix
 * equals the other or extends it at a '.' ("a.b" extends "a", "ab"
 * does not; every prefix extends the empty one).
 */
bool
nested(const std::string& a, const std::string& b)
{
    const std::string& shorter = a.size() <= b.size() ? a : b;
    const std::string& longer = a.size() <= b.size() ? b : a;
    return shorter.empty() ||
           (longer.starts_with(shorter) &&
            (longer.size() == shorter.size() ||
             longer[shorter.size()] == '.'));
}

} // namespace

// ------------------------------------------------------------ StatRegistry

StatGroup&
StatRegistry::loose()
{
    if (!loose_.attached())
        loose_.attach(*this, "");
    return loose_;
}

void
StatRegistry::add(const std::string& name, const Counter& c)
{
    loose().add(name, c);
}

void
StatRegistry::add(const std::string& name, const Accumulator& a)
{
    loose().add(name, a);
}

void
StatRegistry::add(const std::string& name, const Distribution& d)
{
    loose().add(name, d);
}

void
StatRegistry::add(const std::string& name, const LatencyStat& l)
{
    loose().add(name, l);
}

void
StatRegistry::addValue(const std::string& name, const std::uint64_t& v)
{
    loose().addValue(name, v);
}

void
StatRegistry::remove(const std::string& name)
{
    for (StatGroup* g = head_; g; g = g->next_) {
        if (const Entry* l = g->leafFor(name)) {
            g->leaves_.erase(g->leaves_.begin() + (l - g->leaves_.data()));
            return;
        }
    }
}

void
StatRegistry::removePrefix(const std::string& prefix)
{
    for (StatGroup* g = head_; g; g = g->next_) {
        std::erase_if(g->leaves_, [&](const Entry& l) {
            return g->fullName(l.name).starts_with(prefix);
        });
    }
}

std::size_t
StatRegistry::size() const
{
    std::size_t n = 0;
    for (const StatGroup* g = head_; g; g = g->next_)
        n += g->leaves_.size();
    return n;
}

bool
StatRegistry::has(const std::string& name) const
{
    return static_cast<bool>(find(name));
}

std::vector<StatRegistry::Entry>
StatRegistry::sortedRows() const
{
    std::vector<Entry> rows;
    rows.reserve(size());
    for (const StatGroup* g = head_; g; g = g->next_) {
        for (const Entry& l : g->leaves_)
            rows.push_back({g->fullName(l.name), l.kind, l.ptr});
    }
    std::sort(rows.begin(), rows.end(), [](const Entry& a, const Entry& b) {
        return a.name < b.name;
    });
    return rows;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    std::vector<Entry> rows = sortedRows();
    out.reserve(rows.size());
    for (Entry& r : rows)
        out.push_back(std::move(r.name));
    return out;
}

StatRegistry::StatRef
StatRegistry::find(const std::string& name) const
{
    for (const StatGroup* g = head_; g; g = g->next_) {
        if (const Entry* l = g->leafFor(name))
            return StatRef{l->kind, l->ptr};
    }
    return {};
}

const Counter*
StatRegistry::counter(const std::string& name) const
{
    return find(name).counter();
}

const Accumulator*
StatRegistry::accumulator(const std::string& name) const
{
    return find(name).accumulator();
}

const Distribution*
StatRegistry::distribution(const std::string& name) const
{
    return find(name).distribution();
}

const LatencyStat*
StatRegistry::latency(const std::string& name) const
{
    return find(name).latency();
}

const std::uint64_t*
StatRegistry::value(const std::string& name) const
{
    return find(name).value();
}

std::string
StatRegistry::dumpText() const
{
    std::string out;
    for (const Entry& e : sortedRows()) {
        switch (e.kind) {
          case Kind::Counter:
            out += strFormat(
                "%-48s %llu\n", e.name.c_str(),
                static_cast<unsigned long long>(
                    static_cast<const Counter*>(e.ptr)->value()));
            break;
          case Kind::Value:
            out += strFormat(
                "%-48s %llu\n", e.name.c_str(),
                static_cast<unsigned long long>(
                    *static_cast<const std::uint64_t*>(e.ptr)));
            break;
          case Kind::Accumulator: {
            const auto& a = *static_cast<const Accumulator*>(e.ptr);
            out += strFormat(
                "%-48s count %llu mean %.3f stddev %.3f min %.3f "
                "max %.3f\n",
                e.name.c_str(),
                static_cast<unsigned long long>(a.count()), a.mean(),
                a.stddev(), a.min(), a.max());
            break;
          }
          case Kind::Distribution: {
            const auto& d = *static_cast<const Distribution*>(e.ptr);
            out += strFormat(
                "%-48s count %llu mean %.3f p50 %.3f p95 %.3f "
                "p99 %.3f max %.3f\n",
                e.name.c_str(),
                static_cast<unsigned long long>(d.count()), d.mean(),
                d.percentile(50), d.percentile(95), d.percentile(99),
                d.max());
            break;
          }
          case Kind::Latency: {
            const auto& l = *static_cast<const LatencyStat*>(e.ptr);
            out += strFormat(
                "%-48s count %llu meanUs %.3f p50Us %.3f p95Us %.3f "
                "p99Us %.3f maxUs %.3f\n",
                e.name.c_str(),
                static_cast<unsigned long long>(l.count()), l.meanUs(),
                l.p50Us(), l.p95Us(), l.p99Us(), l.maxUs());
            break;
          }
        }
    }
    return out;
}

std::string
StatRegistry::dumpJson() const
{
    std::string out = "{\n";
    bool first = true;
    for (const Entry& e : sortedRows()) {
        if (!first)
            out += ",\n";
        first = false;
        out += strFormat("  \"%s\": ", e.name.c_str());
        switch (e.kind) {
          case Kind::Counter:
            out += strFormat(
                "{\"kind\": \"counter\", \"value\": %llu}",
                static_cast<unsigned long long>(
                    static_cast<const Counter*>(e.ptr)->value()));
            break;
          case Kind::Value:
            out += strFormat(
                "{\"kind\": \"value\", \"value\": %llu}",
                static_cast<unsigned long long>(
                    *static_cast<const std::uint64_t*>(e.ptr)));
            break;
          case Kind::Accumulator: {
            const auto& a = *static_cast<const Accumulator*>(e.ptr);
            out += strFormat(
                "{\"kind\": \"accumulator\", \"count\": %llu, "
                "\"mean\": %.6g, \"stddev\": %.6g, \"min\": %.6g, "
                "\"max\": %.6g}",
                static_cast<unsigned long long>(a.count()), a.mean(),
                a.stddev(), a.min(), a.max());
            break;
          }
          case Kind::Distribution: {
            const auto& d = *static_cast<const Distribution*>(e.ptr);
            out += strFormat(
                "{\"kind\": \"distribution\", \"count\": %llu, "
                "\"mean\": %.6g, \"p50\": %.6g, \"p95\": %.6g, "
                "\"p99\": %.6g, \"max\": %.6g}",
                static_cast<unsigned long long>(d.count()), d.mean(),
                d.percentile(50), d.percentile(95), d.percentile(99),
                d.max());
            break;
          }
          case Kind::Latency: {
            const auto& l = *static_cast<const LatencyStat*>(e.ptr);
            out += strFormat(
                "{\"kind\": \"latency\", \"count\": %llu, "
                "\"meanUs\": %.6g, \"p50Us\": %.6g, \"p95Us\": %.6g, "
                "\"p99Us\": %.6g, \"maxUs\": %.6g}",
                static_cast<unsigned long long>(l.count()), l.meanUs(),
                l.p50Us(), l.p95Us(), l.p99Us(), l.maxUs());
            break;
          }
        }
    }
    out += "\n}\n";
    return out;
}

bool
StatRegistry::writeFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write stats dump to '%s'", path.c_str());
        return false;
    }
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    const std::string body = json ? dumpJson() : dumpText();
    const bool written =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
        warn("cannot write stats dump to '%s'", path.c_str());
        return false;
    }
    return true;
}

// --------------------------------------------------------------- StatGroup

StatGroup::StatGroup(StatRegistry& r, std::string prefix)
{
    attach(r, std::move(prefix));
}

StatGroup::~StatGroup()
{
    detach();
}

StatGroup::StatGroup(StatGroup&& o) noexcept
{
    takeOver(o);
}

StatGroup&
StatGroup::operator=(StatGroup&& o) noexcept
{
    if (this != &o) {
        detach();
        takeOver(o);
    }
    return *this;
}

void
StatGroup::attach(StatRegistry& r, std::string prefix)
{
    detach();
    reg_ = &r;
    prefix_ = std::move(prefix);
    next_ = r.head_;
    if (next_)
        next_->prev_ = this;
    r.head_ = this;
}

void
StatGroup::detach()
{
    if (!reg_)
        return;
    (prev_ ? prev_->next_ : reg_->head_) = next_;
    if (next_)
        next_->prev_ = prev_;
    reg_ = nullptr;
    prev_ = next_ = nullptr;
    leaves_.clear();
}

void
StatGroup::takeOver(StatGroup& o)
{
    reg_ = std::exchange(o.reg_, nullptr);
    prefix_ = std::move(o.prefix_);
    leaves_ = std::exchange(o.leaves_, {});
    prev_ = std::exchange(o.prev_, nullptr);
    next_ = std::exchange(o.next_, nullptr);
    if (!reg_)
        return;
    (prev_ ? prev_->next_ : reg_->head_) = this;
    if (next_)
        next_->prev_ = this;
}

std::string
StatGroup::fullName(const std::string& leaf) const
{
    return prefix_.empty() ? leaf : prefix_ + "." + leaf;
}

const StatGroup::Entry*
StatGroup::leafFor(const std::string& name) const
{
    std::string_view rest = name;
    if (!prefix_.empty()) {
        // Our names continue past "<prefix>."; "<prefix>x" is not ours.
        if (rest.size() <= prefix_.size() || rest[prefix_.size()] != '.' ||
            !rest.starts_with(prefix_))
            return nullptr;
        rest.remove_prefix(prefix_.size() + 1);
    }
    for (const Entry& l : leaves_) {
        if (l.name == rest)
            return &l;
    }
    return nullptr;
}

void
StatGroup::addLeaf(const std::string& leaf, StatKind kind, const void* p)
{
    if (!reg_)
        return;
    CG_ASSERT(!prefix_.empty() || !leaf.empty(), "stat with empty name");
    bool taken = std::any_of(leaves_.begin(), leaves_.end(),
                             [&](const Entry& l) { return l.name == leaf; });
    // Only a group whose prefix nests with ours can hold our name;
    // component prefixes are disjoint, so this rarely builds it.
    std::string name;
    for (const StatGroup* g = reg_->head_; g && !taken; g = g->next_) {
        if (g == this || !nested(prefix_, g->prefix_))
            continue;
        if (name.empty())
            name = fullName(leaf);
        taken = g->leafFor(name) != nullptr;
    }
    CG_ASSERT(!taken, "duplicate stat name '%s'", fullName(leaf).c_str());
    leaves_.push_back({leaf, kind, p});
}

void
StatGroup::add(const std::string& leaf, const Counter& c)
{
    addLeaf(leaf, StatKind::Counter, &c);
}

void
StatGroup::add(const std::string& leaf, const Accumulator& a)
{
    addLeaf(leaf, StatKind::Accumulator, &a);
}

void
StatGroup::add(const std::string& leaf, const Distribution& d)
{
    addLeaf(leaf, StatKind::Distribution, &d);
}

void
StatGroup::add(const std::string& leaf, const LatencyStat& l)
{
    addLeaf(leaf, StatKind::Latency, &l);
}

void
StatGroup::addValue(const std::string& leaf, const std::uint64_t& v)
{
    addLeaf(leaf, StatKind::Value, &v);
}

void
StatGroup::clear()
{
    leaves_.clear();
}

} // namespace cg::sim
