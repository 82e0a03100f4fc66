#include "sim/fault.hh"

#include <cstdlib>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace cg::sim {

namespace {

constexpr const char* siteNames[numFaultSites] = {
    "ipi-drop",
    "ipi-delay",
    "doorbell-lost",
    "syncrpc-stall",
    "monitor-hang",
    "hotplug-offline-fail",
    "hotplug-online-fail",
    "rmi-transient-error",
    "scrub-skip",
    "virtio-lost-kick",
    "migration-abort",
    "rtt-copy-stall",
};

/** Reject a spec no trigger can honour (a NaN probability included). */
void
checkSpec(const FaultSpec& spec)
{
    if (!(spec.probability >= 0.0 && spec.probability <= 1.0))
        fatal("fault spec probability %g out of [0,1]", spec.probability);
    if (spec.windowEnd < spec.windowStart)
        fatal("fault spec window ends before it starts");
}

} // namespace

std::string
faultSiteListText()
{
    std::string out;
    for (int i = 0; i < numFaultSites; ++i) {
        out += "  ";
        out += siteNames[i];
        out += '\n';
    }
    return out;
}

const char*
faultSiteName(FaultSite s)
{
    const int i = static_cast<int>(s);
    CG_ASSERT(i >= 0 && i < numFaultSites, "bad fault site %d", i);
    return siteNames[i];
}

std::optional<FaultSite>
faultSiteFromName(const std::string& name)
{
    for (int i = 0; i < numFaultSites; ++i) {
        if (name == siteNames[i])
            return static_cast<FaultSite>(i);
    }
    return std::nullopt;
}

void
FaultPlan::arm(std::uint64_t seed)
{
    armed_ = true;
    rng_.reseed(seed);
    specs_.clear();
    occ_.fill(0);
    lastInjectedAt_.fill(0);
}

void
FaultPlan::arm(std::uint64_t seed, const std::vector<FaultSpec>& specs)
{
    arm(seed);
    for (const FaultSpec& s : specs)
        add(s);
}

void
FaultPlan::add(const FaultSpec& spec)
{
    CG_ASSERT(armed_, "adding a fault spec to a disarmed plan");
    checkSpec(spec);
    specs_.push_back(ArmedSpec{spec, 0});
}

std::optional<Tick>
FaultPlan::query(FaultSite site)
{
    if (!armed_)
        return std::nullopt;
    const auto i = static_cast<size_t>(site);
    const std::uint64_t occ = ++occ_[i];
    const Tick now = queue_.now();
    for (ArmedSpec& as : specs_) {
        const FaultSpec& s = as.spec;
        if (s.site != site)
            continue;
        if (s.maxInjections != 0 && as.fired >= s.maxInjections)
            continue;
        if (now < s.windowStart || now > s.windowEnd)
            continue;
        if (s.nth != 0 && occ != s.nth)
            continue;
        // Draw only once every deterministic predicate already holds,
        // so the number of draws (and thus the stream position) is a
        // pure function of the simulated event sequence.
        if (s.probability < 1.0 && !rng_.chance(s.probability))
            continue;
        ++as.fired;
        injected_[i].inc();
        lastInjectedAt_[i] = now;
        if (tracer_) {
            tracer_->instant("fault-inject", Tracer::domainsPid, 0,
                             "site", faultSiteName(site));
        }
        return s.param;
    }
    return std::nullopt;
}

void
FaultPlan::noteDetected(FaultSite site)
{
    const auto i = static_cast<size_t>(site);
    if (injected_[i].value() == 0)
        return; // spurious (e.g. a watchdog pass with nothing lost)
    detected_[i].sample(queue_.now() - lastInjectedAt_[i]);
    if (tracer_) {
        tracer_->instant("fault-detected", Tracer::domainsPid, 0,
                         "site", faultSiteName(site));
    }
}

void
FaultPlan::noteRecovered(FaultSite site)
{
    const auto i = static_cast<size_t>(site);
    if (injected_[i].value() == 0)
        return;
    recovered_[i].sample(queue_.now() - lastInjectedAt_[i]);
    if (tracer_) {
        tracer_->instant("fault-recovered", Tracer::domainsPid, 0,
                         "site", faultSiteName(site));
    }
}

std::uint64_t
FaultPlan::injectedTotal() const
{
    std::uint64_t n = 0;
    for (const Counter& c : injected_)
        n += c.value();
    return n;
}

void
FaultPlan::registerStats(StatRegistry& reg)
{
    statGroup_.attach(reg, "faults");
    for (int i = 0; i < numFaultSites; ++i) {
        const std::string site = siteNames[i];
        statGroup_.add("injected." + site,
                       injected_[static_cast<size_t>(i)]);
        statGroup_.add("detected." + site,
                       detected_[static_cast<size_t>(i)]);
        statGroup_.add("recovered." + site,
                       recovered_[static_cast<size_t>(i)]);
    }
}

// ------------------------------------------------------------ plan text

namespace {

/** "50us" -> ticks; bare numbers are nanoseconds. */
Tick
parseTime(const std::string& text)
{
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &pos);
    } catch (const std::exception&) {
        fatal("fault plan: bad time '%s'", text.c_str());
    }
    if (!(v >= 0.0))
        fatal("fault plan: bad time '%s'", text.c_str());
    const std::string unit = text.substr(pos);
    Tick scale = nsec;
    if (unit == "ns" || unit.empty())
        scale = nsec;
    else if (unit == "us")
        scale = usec;
    else if (unit == "ms")
        scale = msec;
    else if (unit == "s")
        scale = sec;
    else
        fatal("fault plan: bad time unit '%s'", unit.c_str());
    const double ticks = v * static_cast<double>(scale);
    if (!(ticks < static_cast<double>(maxTick)))
        fatal("fault plan: time '%s' out of range", text.c_str());
    return static_cast<Tick>(ticks);
}

/** Digits only: stoull alone would read "-1" as 2^64-1 and "5x" as 5. */
std::uint64_t
parseCount(const std::string& text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        fatal("fault plan: bad count '%s'", text.c_str());
    try {
        return std::stoull(text);
    } catch (const std::exception&) {
        fatal("fault plan: bad count '%s'", text.c_str());
    }
}

/** The whole of @p text as a probability; trailing junk is an error. */
double
parseProbability(const std::string& text)
{
    std::size_t pos = 0;
    double p = 0.0;
    try {
        p = std::stod(text, &pos);
    } catch (const std::exception&) {
        fatal("fault plan: bad probability '%s'", text.c_str());
    }
    if (pos != text.size())
        fatal("fault plan: bad probability '%s'", text.c_str());
    return p;
}

std::vector<std::string>
split(const std::string& text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
}

} // namespace

std::vector<FaultSpec>
FaultPlan::parse(const std::string& text)
{
    std::vector<FaultSpec> out;
    for (const std::string& clause : split(text, ';')) {
        if (clause.empty())
            continue;
        const std::vector<std::string> parts = split(clause, ':');
        FaultSpec spec;
        const auto site = faultSiteFromName(parts[0]);
        if (!site) {
            fatal("fault plan: unknown site '%s'; known sites:\n%s",
                  parts[0].c_str(), faultSiteListText().c_str());
        }
        spec.site = *site;
        for (std::size_t i = 1; i < parts.size(); ++i) {
            const std::size_t eq = parts[i].find('=');
            if (eq == std::string::npos) {
                fatal("fault plan: expected key=value, got '%s'",
                      parts[i].c_str());
            }
            const std::string key = parts[i].substr(0, eq);
            const std::string val = parts[i].substr(eq + 1);
            if (key == "nth") {
                spec.nth = parseCount(val);
            } else if (key == "p") {
                spec.probability = parseProbability(val);
            } else if (key == "from") {
                spec.windowStart = parseTime(val);
            } else if (key == "until") {
                spec.windowEnd = parseTime(val);
            } else if (key == "max") {
                spec.maxInjections = parseCount(val);
            } else if (key == "param") {
                spec.param = parseTime(val);
            } else {
                fatal("fault plan: unknown key '%s'", key.c_str());
            }
        }
        checkSpec(spec);
        out.push_back(spec);
    }
    return out;
}

} // namespace cg::sim
