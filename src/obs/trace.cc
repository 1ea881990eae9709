#include "obs/trace.hh"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace capart::obs
{

namespace
{

std::atomic<std::uint64_t> gNextTracerId{1};

/** Perfetto pid of the one exported process, "host wall clock". */
constexpr unsigned kHostPid = 2;

/** Escape a (should-be-literal) event name for JSON output. */
void
writeEscaped(std::ostream &os, const char *s)
{
    for (; *s; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
}

} // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(ring_capacity),
      id_(gNextTracerId.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{
    capart_assert(ring_capacity >= 2);
}

Tracer::~Tracer() = default;

double
Tracer::wallUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::Ring &
Tracer::ring()
{
    // Each thread caches (tracer id -> ring) so a thread touching
    // several tracers (tests build local ones) never re-registers.
    thread_local std::vector<std::pair<std::uint64_t, Ring *>> cache;
    for (const auto &[id, r] : cache) {
        if (id == id_)
            return *r;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<std::uint32_t>(rings_.size())));
    Ring *r = rings_.back().get();
    cache.emplace_back(id_, r);
    return *r;
}

void
Tracer::complete(const char *name, const char *cat, double ts_us,
                 double dur_us, std::initializer_list<TraceArg> args)
{
    if (!enabled())
        return;
    Ring &r = ring();
    if (r.recorded >= r.buf.size()) {
        // The slot we are about to take still holds a retained event:
        // this write evicts it. Count the loss so exports can say how
        // much of the timeline the ring forgot.
        static Counter &drops = metrics().counter("trace.dropped");
        drops.inc();
    }
    Event &e = r.buf[r.next];
    e.name = name;
    e.cat = cat;
    e.ts = ts_us;
    e.dur = dur_us;
    e.tid = r.tid;
    e.nargs = 0;
    for (const TraceArg &a : args) {
        if (e.nargs >= 2)
            break;
        e.argName[e.nargs] = a.name;
        e.argVal[e.nargs] = a.value;
        ++e.nargs;
    }
    r.next = (r.next + 1) % r.buf.size();
    ++r.recorded;
}

std::uint64_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &r : rings_)
        n += std::min<std::uint64_t>(r->recorded, r->buf.size());
    return n;
}

std::uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &r : rings_) {
        if (r->recorded > r->buf.size())
            n += r->recorded - r->buf.size();
    }
    return n;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &r : rings_) {
        r->next = 0;
        r->recorded = 0;
    }
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    // Snapshot every ring in chronological ring order (oldest retained
    // event first), then sort the union by timestamp.
    std::vector<Event> events;
    std::uint64_t dropped_events = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &r : rings_) {
            if (r->recorded > r->buf.size())
                dropped_events += r->recorded - r->buf.size();
            const std::size_t cap = r->buf.size();
            const std::size_t n =
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    r->recorded, cap));
            const std::size_t start =
                r->recorded > cap ? r->next : 0;
            for (std::size_t i = 0; i < n; ++i)
                events.push_back(r->buf[(start + i) % cap]);
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts < b.ts;
                     });

    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    os << "{\"ph\": \"M\", \"pid\": " << kHostPid
       << ", \"name\": \"process_name\", "
          "\"args\": {\"name\": \"host wall clock\"}}";
    for (const Event &e : events) {
        os << ",\n{\"name\": \"";
        writeEscaped(os, e.name);
        os << "\", \"cat\": \"";
        writeEscaped(os, e.cat);
        os << "\", \"ph\": \"X\", \"ts\": " << e.ts
           << ", \"dur\": " << e.dur << ", \"pid\": " << kHostPid
           << ", \"tid\": " << e.tid;
        if (e.nargs > 0) {
            os << ", \"args\": {";
            for (unsigned a = 0; a < e.nargs; ++a) {
                if (a)
                    os << ", ";
                os << "\"";
                writeEscaped(os, e.argName[a]);
                os << "\": " << e.argVal[a];
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n], \"metadata\": {\"dropped_events\": " << dropped_events
       << ", \"retained_events\": " << events.size() << "}}\n";
}

Tracer &
tracer()
{
    static Tracer global;
    return global;
}

TraceSpan::TraceSpan(const char *name, const char *cat,
                     std::initializer_list<TraceArg> args)
    : name_(name), cat_(cat), startUs_(0.0), nargs_(0),
      active_(enabled())
{
    if (!active_)
        return;
    for (const TraceArg &a : args) {
        if (nargs_ >= 2)
            break;
        args_[nargs_++] = a;
    }
    startUs_ = tracer().wallUs();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    const double end = tracer().wallUs();
    // initializer_list cannot be built from a runtime array; dispatch
    // on the small fixed arity instead.
    switch (nargs_) {
      case 0:
        tracer().complete(name_, cat_, startUs_, end - startUs_);
        break;
      case 1:
        tracer().complete(name_, cat_, startUs_, end - startUs_,
                          {args_[0]});
        break;
      default:
        tracer().complete(name_, cat_, startUs_, end - startUs_,
                          {args_[0], args_[1]});
        break;
    }
}

} // namespace capart::obs
