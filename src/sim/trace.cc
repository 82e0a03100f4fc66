#include "sim/trace.hh"

#include <cstdio>
#include <set>
#include <utility>

#include "sim/logging.hh"

namespace cg::sim {

// ----------------------------------------------------------------- Tracer

void
Tracer::enable(std::size_t capacity)
{
    CG_ASSERT(capacity > 0, "tracer needs a non-empty ring");
    ring_.assign(capacity, Event{});
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
    enabled_ = true;
}

void
Tracer::push(Event e)
{
    e.ts = queue_.now();
    if (count_ == ring_.size())
        ++dropped_; // overwriting the oldest event
    else
        ++count_;
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
}

void
Tracer::begin(const char* name, int pid, int tid)
{
    if (!enabled_)
        return;
    Event e;
    e.name = name;
    e.phase = 'B';
    e.pid = pid;
    e.tid = tid;
    push(e);
}

void
Tracer::end(const char* name, int pid, int tid)
{
    if (!enabled_)
        return;
    Event e;
    e.name = name;
    e.phase = 'E';
    e.pid = pid;
    e.tid = tid;
    push(e);
}

void
Tracer::end(const char* name, int pid, int tid, const char* arg_name,
            const char* arg_value)
{
    if (!enabled_)
        return;
    Event e;
    e.name = name;
    e.phase = 'E';
    e.pid = pid;
    e.tid = tid;
    e.argName = arg_name;
    e.argStr = arg_value;
    push(e);
}

void
Tracer::instant(const char* name, int pid, int tid)
{
    if (!enabled_)
        return;
    Event e;
    e.name = name;
    e.pid = pid;
    e.tid = tid;
    push(e);
}

void
Tracer::instant(const char* name, int pid, int tid,
                const char* arg_name, std::uint64_t arg_value)
{
    if (!enabled_)
        return;
    Event e;
    e.name = name;
    e.pid = pid;
    e.tid = tid;
    e.argName = arg_name;
    e.argValue = arg_value;
    push(e);
}

void
Tracer::instant(const char* name, int pid, int tid,
                const char* arg_name, const char* arg_value)
{
    if (!enabled_)
        return;
    Event e;
    e.name = name;
    e.pid = pid;
    e.tid = tid;
    e.argName = arg_name;
    e.argStr = arg_value;
    push(e);
}

std::vector<Tracer::Event>
Tracer::events() const
{
    std::vector<Event> out;
    out.reserve(count_);
    if (count_ == 0)
        return out;
    // Oldest event: head_ when the ring has wrapped, 0 otherwise.
    const std::size_t start =
        count_ == ring_.size() ? head_ : (head_ + ring_.size() - count_)
                                             % ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

namespace {

/** Minimal JSON string escaping (the names are literals, but be safe). */
std::string
jsonEscape(const char* s)
{
    std::string out;
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            out.push_back('\\');
        out.push_back(*s);
    }
    return out;
}

} // namespace

std::string
Tracer::exportJson() const
{
    const std::vector<Event> evs = events();
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    const auto append = [&](const std::string& s) {
        if (!first)
            out += ",\n";
        first = false;
        out += s;
    };

    // Metadata: name the two process tracks and every thread track
    // that appears, so viewers label rows "core 3" / "domain 2".
    append(strFormat("{\"name\": \"process_name\", \"ph\": \"M\", "
                     "\"pid\": %d, \"tid\": 0, \"args\": {\"name\": "
                     "\"cores\"}}",
                     coresPid));
    append(strFormat("{\"name\": \"process_name\", \"ph\": \"M\", "
                     "\"pid\": %d, \"tid\": 0, \"args\": {\"name\": "
                     "\"vm-domains\"}}",
                     domainsPid));
    std::set<std::pair<std::int32_t, std::int32_t>> tracks;
    for (const Event& e : evs)
        tracks.insert({e.pid, e.tid});
    for (const auto& [pid, tid] : tracks) {
        append(strFormat(
            "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
            "\"tid\": %d, \"args\": {\"name\": \"%s %d\"}}",
            pid, tid, pid == coresPid ? "core" : "domain", tid));
    }

    for (const Event& e : evs) {
        // trace_event timestamps are microseconds; ticks are ps.
        std::string line = strFormat(
            "{\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %.6f, "
            "\"pid\": %d, \"tid\": %d",
            jsonEscape(e.name).c_str(), e.phase,
            static_cast<double>(e.ts) / 1e6, e.pid, e.tid);
        if (e.phase == 'i')
            line += ", \"s\": \"t\""; // instant scope: thread
        if (e.argName) {
            if (e.argStr) {
                line += strFormat(", \"args\": {\"%s\": \"%s\"}",
                                  jsonEscape(e.argName).c_str(),
                                  jsonEscape(e.argStr).c_str());
            } else {
                line += strFormat(
                    ", \"args\": {\"%s\": %llu}",
                    jsonEscape(e.argName).c_str(),
                    static_cast<unsigned long long>(e.argValue));
            }
        }
        line += "}";
        append(line);
    }
    out += strFormat("\n], \"displayTimeUnit\": \"ns\", "
                     "\"droppedEvents\": %llu}\n",
                     static_cast<unsigned long long>(dropped_));
    return out;
}

bool
Tracer::writeFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write trace to '%s'", path.c_str());
        return false;
    }
    const std::string body = exportJson();
    const bool written =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
        warn("cannot write trace to '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace cg::sim
