#include "obs/timeseries.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/util.hh"
#include "obs/metrics.hh"

namespace capart::obs
{

namespace
{

std::atomic<std::uint64_t> gNextSeriesId{1};

Json
u64Json(std::uint64_t v)
{
    // Doubles hold integers exactly up to 2^53; counters in one run
    // stay far below that, so numeric JSON keeps the files readable.
    return Json(static_cast<double>(v));
}

Json
ownerToJson(const OwnerSample &o)
{
    Json j = Json::object();
    j.set("owner", Json(static_cast<double>(o.owner)));
    j.set("lines", u64Json(o.residentLines));
    j.set("ways", Json(o.occupancyWays));
    j.set("mask", Json(static_cast<double>(o.wayMaskBits)));
    j.set("retired", u64Json(o.retired));
    j.set("cycles", u64Json(o.cycles));
    Json stall = Json::array();
    stall.push(u64Json(o.stallCompute));
    stall.push(u64Json(o.stallL2));
    stall.push(u64Json(o.stallLlc));
    stall.push(u64Json(o.stallDram));
    stall.push(u64Json(o.stallQueue));
    j.set("stall", std::move(stall));
    Json energy = Json::array();
    energy.push(Json(o.busyJ));
    energy.push(Json(o.llcJ));
    energy.push(Json(o.dramJ));
    j.set("energy", std::move(energy));
    Json chan = Json::array();
    for (const std::uint64_t b : o.channelBytes)
        chan.push(u64Json(b));
    j.set("chan", std::move(chan));
    return j;
}

OwnerSample
ownerFromJson(const Json &j)
{
    OwnerSample o;
    o.owner = static_cast<unsigned>(j.at("owner").asNum());
    o.residentLines = static_cast<std::uint64_t>(j.at("lines").asNum());
    o.occupancyWays = j.at("ways").asNum();
    o.wayMaskBits = static_cast<std::uint32_t>(j.at("mask").asNum());
    o.retired = static_cast<std::uint64_t>(j.at("retired").asNum());
    o.cycles = static_cast<std::uint64_t>(j.at("cycles").asNum());
    const Json &stall = j.at("stall");
    auto stallAt = [&](std::size_t i) {
        return i < stall.arr.size()
                   ? static_cast<std::uint64_t>(stall.arr[i].num)
                   : 0;
    };
    o.stallCompute = stallAt(0);
    o.stallL2 = stallAt(1);
    o.stallLlc = stallAt(2);
    o.stallDram = stallAt(3);
    o.stallQueue = stallAt(4);
    const Json &energy = j.at("energy");
    auto energyAt = [&](std::size_t i) {
        return i < energy.arr.size() ? energy.arr[i].num : 0.0;
    };
    o.busyJ = energyAt(0);
    o.llcJ = energyAt(1);
    o.dramJ = energyAt(2);
    for (const Json &b : j.at("chan").arr)
        o.channelBytes.push_back(static_cast<std::uint64_t>(b.num));
    return o;
}

Json
sampleToJson(const AttributionSample &s)
{
    Json j = Json::object();
    j.set("t_us", Json(s.tUs));
    j.set("q", u64Json(s.quantum));
    j.set("llc_lines", u64Json(s.llcResidentLines));
    j.set("llc_sets", u64Json(s.llcSets));
    j.set("llc_ways", Json(static_cast<double>(s.llcWays)));
    j.set("socket_j", Json(s.socketDynamicJ));
    j.set("dram_j", Json(s.dramJ));
    Json owners = Json::array();
    for (const OwnerSample &o : s.owners)
        owners.push(ownerToJson(o));
    j.set("owners", std::move(owners));
    return j;
}

AttributionSample
sampleFromJson(const Json &j)
{
    AttributionSample s;
    s.tUs = j.at("t_us").asNum();
    s.quantum = static_cast<std::uint64_t>(j.at("q").asNum());
    s.llcResidentLines =
        static_cast<std::uint64_t>(j.at("llc_lines").asNum());
    s.llcSets = static_cast<std::uint64_t>(j.at("llc_sets").asNum());
    s.llcWays = static_cast<unsigned>(j.at("llc_ways").asNum());
    s.socketDynamicJ = j.at("socket_j").asNum();
    s.dramJ = j.at("dram_j").asNum();
    for (const Json &o : j.at("owners").arr)
        s.owners.push_back(ownerFromJson(o));
    return s;
}

Json
entryToJson(const JournalEntry &e)
{
    Json j = Json::object();
    j.set("t_us", Json(e.tUs));
    j.set("kind", Json(e.kind));
    j.set("rule", Json(e.rule));
    Json fields = Json::object();
    for (const auto &[name, value] : e.fields)
        fields.set(name, Json(value));
    j.set("fields", std::move(fields));
    return j;
}

JournalEntry
entryFromJson(const Json &j)
{
    JournalEntry e;
    e.tUs = j.at("t_us").asNum();
    e.kind = j.at("kind").asStr();
    e.rule = j.at("rule").asStr();
    for (const auto &[name, value] : j.at("fields").obj) {
        if (value.kind == Json::Kind::Num)
            e.fields.emplace_back(name, value.num);
    }
    return e;
}

} // namespace

double
JournalEntry::field(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : fields) {
        if (k == name)
            return v;
    }
    return fallback;
}

TimeSeries::TimeSeries()
    : id_(gNextSeriesId.fetch_add(1, std::memory_order_relaxed))
{
}

TimeSeries::~TimeSeries() = default;

void
TimeSeries::setPeriod(std::uint64_t quanta)
{
    period_.store(quanta, std::memory_order_relaxed);
}

TimeSeries::Scope &
TimeSeries::scope()
{
    // Same idiom as Tracer::ring(): each thread caches (instance id ->
    // scope) so re-lookups after the first record are lock-free.
    thread_local std::vector<std::pair<std::uint64_t, Scope *>> cache;
    for (const auto &[id, s] : cache) {
        if (id == id_)
            return *s;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    scopes_.push_back(std::make_unique<Scope>());
    Scope *s = scopes_.back().get();
    cache.emplace_back(id_, s);
    return *s;
}

void
TimeSeries::record(AttributionSample sample)
{
    if (!enabled())
        return;
    Scope &s = scope();
    if (s.samplesRecorded >= s.samples.size()) {
        // A full ring evicts its oldest sample.
        static Counter &drops = metrics().counter("timeseries.dropped");
        drops.inc();
    }
    s.samples[s.sampleNext] = std::move(sample);
    s.sampleNext = (s.sampleNext + 1) % s.samples.size();
    ++s.samplesRecorded;
}

void
TimeSeries::journal(JournalEntry entry)
{
    if (!enabled())
        return;
    Scope &s = scope();
    if (s.journalRecorded >= s.journal.size()) {
        static Counter &drops = metrics().counter("journal.dropped");
        drops.inc();
    }
    s.journal[s.journalNext] = std::move(entry);
    s.journalNext = (s.journalNext + 1) % s.journal.size();
    ++s.journalRecorded;
}

AttributionBatch
TimeSeries::drainAll()
{
    AttributionBatch batch;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &s : scopes_)
        drainRing(*s, &batch);
    return batch;
}

void
TimeSeries::drainRing(Scope &s, AttributionBatch *out)
{
    {
        const std::size_t cap = s.samples.size();
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(s.samplesRecorded, cap));
        const std::size_t start =
            s.samplesRecorded > cap ? s.sampleNext : 0;
        for (std::size_t i = 0; i < n; ++i)
            out->samples.push_back(
                std::move(s.samples[(start + i) % cap]));
        s.sampleNext = 0;
        s.samplesRecorded = 0;
    }
    {
        const std::size_t cap = s.journal.size();
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(s.journalRecorded, cap));
        const std::size_t start =
            s.journalRecorded > cap ? s.journalNext : 0;
        for (std::size_t i = 0; i < n; ++i)
            out->journal.push_back(
                std::move(s.journal[(start + i) % cap]));
        s.journalNext = 0;
        s.journalRecorded = 0;
    }
}

AttributionBatch
TimeSeries::drainScope()
{
    AttributionBatch batch;
    Scope &s = scope();
    // The scope belongs to the calling thread, but drain under the
    // lock anyway: drainAll() and clear() walk every scope.
    std::lock_guard<std::mutex> lock(mutex_);
    drainRing(s, &batch);
    return batch;
}

void
TimeSeries::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &s : scopes_) {
        s->sampleNext = 0;
        s->samplesRecorded = 0;
        s->journalNext = 0;
        s->journalRecorded = 0;
    }
}

TimeSeries &
timeseries()
{
    static TimeSeries global;
    return global;
}

void
writeAttributionJson(std::ostream &os, const AttributionBatch &batch)
{
    Json doc = Json::object();
    doc.set("v", Json(1.0));
    doc.set("label", Json(batch.label));
    doc.set("spec_hash", Json(hexU64(batch.specHash)));
    doc.set("attr_file", Json(batch.attrFile));
    Json samples = Json::array();
    for (const AttributionSample &s : batch.samples)
        samples.push(sampleToJson(s));
    doc.set("samples", std::move(samples));
    Json journal = Json::array();
    for (const JournalEntry &e : batch.journal)
        journal.push(entryToJson(e));
    doc.set("journal", std::move(journal));
    doc.write(os);
    os << '\n';
}

bool
parseAttributionJson(const std::string &text, AttributionBatch *out)
{
    const std::optional<Json> doc = Json::parse(text);
    if (!doc || !doc->isObj())
        return false;
    if (doc->at("v").asNum(0) != 1.0)
        return false;
    AttributionBatch batch;
    batch.label = doc->at("label").asStr();
    batch.attrFile = doc->at("attr_file").asStr();
    if (!parseU64(doc->at("spec_hash").asStr("0"), &batch.specHash))
        return false;
    for (const Json &s : doc->at("samples").arr)
        batch.samples.push_back(sampleFromJson(s));
    for (const Json &e : doc->at("journal").arr)
        batch.journal.push_back(entryFromJson(e));
    *out = std::move(batch);
    return true;
}

} // namespace capart::obs
