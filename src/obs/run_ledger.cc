#include "obs/run_ledger.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/util.hh"

namespace capart::obs
{

namespace
{

/** Record-format version; bump when fields change meaning. */
constexpr int kVersion = 1;

void
writePairs(std::ostringstream &os, const char *key,
           const std::vector<std::pair<std::string, double>> &pairs)
{
    os << ",\"" << key << "\":{";
    bool first = true;
    for (const auto &[name, value] : pairs) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << "\":";
        jsonWriteNumber(os, value);
    }
    os << '}';
}

void
readPairs(const Json &obj, std::vector<std::pair<std::string, double>> *out)
{
    for (const auto &[name, value] : obj.obj) {
        if (value.kind == Json::Kind::Num)
            out->emplace_back(name, value.num);
    }
}

} // namespace

double
RunRecord::metric(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : metrics) {
        if (k == name)
            return v;
    }
    return fallback;
}

RunLedger::RunLedger(std::string path) : path_(std::move(path))
{
    file_.open(path_, std::ios::app);
    ok_ = static_cast<bool>(file_);
    if (!ok_) {
        std::fprintf(stderr, "capart: cannot open run ledger %s\n",
                     path_.c_str());
    }
}

void
RunLedger::append(const RunRecord &rec)
{
    const std::string line = encode(rec);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ok_)
        return;
    // One write call for line + newline, then a flush: the on-disk
    // ledger always ends at a record boundary except after a crash
    // mid-write, which load() skips.
    file_ << line << '\n';
    file_.flush();
    ++appended_;
}

std::uint64_t
RunLedger::appended() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return appended_;
}

std::string
RunLedger::encode(const RunRecord &rec)
{
    std::ostringstream os;
    os << "{\"v\":" << kVersion;
    os << ",\"kind\":\"" << jsonEscape(rec.kind) << '"';
    os << ",\"bench\":\"" << jsonEscape(rec.bench) << '"';
    os << ",\"run\":\"" << jsonEscape(rec.run) << '"';
    // 64-bit identifiers as strings: doubles cannot hold them exactly.
    os << ",\"spec_hash\":\"" << hexU64(rec.specHash) << '"';
    os << ",\"seed\":\"" << rec.seed << '"';
    os << ",\"ts_ms\":";
    jsonWriteNumber(os, rec.tsMs);
    os << ",\"wall_ms\":";
    jsonWriteNumber(os, rec.wallMs);
    os << ",\"sim_s\":";
    jsonWriteNumber(os, rec.simS);
    os << ",\"cached\":" << (rec.fromCache ? "true" : "false");
    os << ",\"spec\":\"" << jsonEscape(rec.spec) << '"';
    // Optional fields are written only when set, so records from
    // before these fields existed re-encode byte-identically.
    if (!rec.attrFile.empty())
        os << ",\"attr_file\":\"" << jsonEscape(rec.attrFile) << '"';
    if (!rec.rule.empty())
        os << ",\"rule\":\"" << jsonEscape(rec.rule) << '"';
    writePairs(os, "metrics", rec.metrics);
    os << '}';
    return os.str();
}

bool
RunLedger::decode(const std::string &line, RunRecord *out)
{
    const std::optional<Json> doc = Json::parse(line);
    if (!doc || !doc->isObj())
        return false;
    if (doc->at("v").asNum(0) != kVersion)
        return false;
    RunRecord rec;
    rec.kind = doc->at("kind").asStr();
    rec.bench = doc->at("bench").asStr();
    rec.run = doc->at("run").asStr();
    rec.spec = doc->at("spec").asStr();
    if (!parseU64(doc->at("spec_hash").asStr("0"), &rec.specHash))
        return false;
    if (!parseU64(doc->at("seed").asStr("0"), &rec.seed))
        return false;
    rec.tsMs = doc->at("ts_ms").asNum();
    rec.wallMs = doc->at("wall_ms").asNum();
    rec.simS = doc->at("sim_s").asNum();
    rec.fromCache = doc->at("cached").asBool();
    rec.attrFile = doc->at("attr_file").asStr();
    rec.rule = doc->at("rule").asStr();
    readPairs(doc->at("metrics"), &rec.metrics);
    // "decision", "npartition_decision", "point_start", "point_failed"
    // and "shard" are retired but still read, so older ledgers load
    // with nothing skipped.
    if (rec.kind != "point" && rec.kind != "bench" &&
        rec.kind != "decision" && rec.kind != "npartition_decision" &&
        rec.kind != "point_start" && rec.kind != "point_failed" &&
        rec.kind != "run_interrupted" && rec.kind != "shard")
        return false;
    *out = std::move(rec);
    return true;
}

RunLedger::LoadResult
RunLedger::load(const std::string &path)
{
    LoadResult result;
    std::ifstream in(path);
    if (!in)
        return result; // missing file == empty ledger
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        RunRecord rec;
        if (decode(line, &rec))
            result.records.push_back(std::move(rec));
        else
            ++result.skipped;
    }
    return result;
}

} // namespace capart::obs
