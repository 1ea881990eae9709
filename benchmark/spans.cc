#include "spans.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"

namespace capart::harness
{

int
SpanRecorder::open(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Clock::now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    capart_assert(!open_.empty() && open_.back() == id);
    spans_[id].end = Clock::now();
    open_.pop_back();
}

void
SpanRecorder::arg(int id, std::string key, double value)
{
    spans_[id].args.emplace_back(std::move(key), value);
}

std::int64_t
SpanRecorder::selfNs(int id) const
{
    const Span &p = spans_[id];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
    for (const Span &s : spans_) {
        if (s.parent == id)
            kids.emplace_back(std::max(s.start, p.start),
                              std::min(s.end, p.end));
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    Clock::time_point reach = p.start;
    for (const auto &[a, b] : kids) {
        const Clock::time_point from = std::max(a, reach);
        if (b > from) {
            covered += nsBetween(from, b);
            reach = b;
        }
    }
    return p.durationNs() - covered;
}

std::int64_t
SpanRecorder::totalNs(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            ns += s.durationNs();
    }
    return ns;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os, int pid,
                               const std::string &process_name) const
{
    Json events = Json::array();
    Json meta = Json::object();
    meta.set("name", Json("process_name"));
    meta.set("ph", Json("M"));
    meta.set("pid", Json(static_cast<double>(pid)));
    meta.set("tid", Json(1.0));
    meta.set("args", Json::object().set("name", Json(process_name)));
    events.push(std::move(meta));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json args = Json::object();
        for (const auto &[k, v] : s.args)
            args.set(k, Json(v));
        args.set("self_us",
                 Json(static_cast<double>(selfNs(static_cast<int>(i))) /
                      1e3));
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("cat", Json("benchmark"));
        e.set("ph", Json("X"));
        e.set("ts", Json(static_cast<double>(nsBetween(epoch_, s.start)) /
                         1e3));
        e.set("dur", Json(static_cast<double>(s.durationNs()) / 1e3));
        e.set("pid", Json(static_cast<double>(pid)));
        e.set("tid", Json(1.0));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    doc.write(os);
    os << '\n';
}

} // namespace capart::harness
