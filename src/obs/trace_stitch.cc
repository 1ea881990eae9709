#include "obs/trace_stitch.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/util.hh"
#include "obs/status.hh"

namespace capart::obs
{

namespace
{

/** An event carried from a source into the stitched timeline. */
struct StitchedEvent
{
    double ts;
    std::string json; //!< the event object, pid already remapped
};

/** Remap a source-local pid (1 = sim, 2 = host) into the stitched
 *  pid space: source i owns pids 2i+1 and 2i+2. */
unsigned
remapPid(unsigned source, double orig_pid)
{
    const unsigned local = orig_pid == 2.0 ? 2 : 1;
    return 2 * source + local;
}

void
emitProcessMeta(std::ostream &os, unsigned pid, const std::string &name,
                unsigned sort_index, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"ph\": \"M\", \"pid\": " << pid
       << ", \"name\": \"process_name\", \"args\": {\"name\": \""
       << jsonEscape(name) << "\"}},\n";
    os << "{\"ph\": \"M\", \"pid\": " << pid
       << ", \"name\": \"process_sort_index\", \"args\": {\"sort_index\": "
       << sort_index << "}}";
}

} // namespace

bool
stitchTraces(const std::vector<StitchSource> &sources, std::ostream &os,
             StitchStats *stats)
{
    StitchStats local;
    std::vector<StitchedEvent> events;
    std::vector<std::pair<unsigned, std::string>> labels; // (source, label)

    for (unsigned i = 0; i < sources.size(); ++i) {
        std::string text;
        if (!readFile(sources[i].path, &text)) {
            ++local.sourcesMissing;
            continue;
        }
        const auto doc = Json::parse(text);
        if (!doc || !doc->isObj() || !doc->at("traceEvents").isArr()) {
            // A worker killed mid-export leaves a torn file; skip it
            // but keep the shard visible in the stats.
            ++local.sourcesMalformed;
            continue;
        }
        ++local.sourcesRead;
        labels.emplace_back(i, sources[i].label);
        local.droppedEvents += static_cast<std::uint64_t>(
            doc->at("metadata").at("dropped_events").asNum(0.0));
        for (const Json &ev : doc->at("traceEvents").arr) {
            if (!ev.isObj())
                continue;
            if (ev.at("ph").asStr("") == "M")
                continue; // source metadata is re-synthesized below
            Json copy = ev;
            copy.set("pid", Json(static_cast<double>(
                                remapPid(i, ev.at("pid").asNum(1.0)))));
            events.push_back(
                {ev.at("ts").asNum(0.0), copy.dump()});
        }
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const StitchedEvent &a, const StitchedEvent &b) {
                         return a.ts < b.ts;
                     });
    local.events = events.size();

    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const auto &[i, label] : labels) {
        emitProcessMeta(os, 2 * i + 1, label + " · simulated time (us)",
                        2 * i + 1, first);
        emitProcessMeta(os, 2 * i + 2, label + " · host wall clock",
                        2 * i + 2, first);
    }
    for (const StitchedEvent &e : events) {
        if (!first)
            os << ",\n";
        first = false;
        os << e.json;
    }
    os << "\n], \"metadata\": {\"stitched_sources\": " << local.sourcesRead
       << ", \"sources_missing\": " << local.sourcesMissing
       << ", \"sources_malformed\": " << local.sourcesMalformed
       << ", \"retained_events\": " << local.events
       << ", \"dropped_events\": " << local.droppedEvents << "}}\n";

    if (stats != nullptr)
        *stats = local;
    return local.sourcesRead > 0;
}

bool
stitchTraceFiles(const std::vector<StitchSource> &sources,
                 const std::string &out_path, StitchStats *stats)
{
    std::ostringstream os;
    const bool ok = stitchTraces(sources, os, stats);
    return writeFileAtomic(out_path, os.str()) && ok;
}

} // namespace capart::obs
