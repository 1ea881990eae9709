#include "obs/status.hh"

#include <cstdio>
#include <fstream>

#include "common/json.hh"
#include "common/util.hh"

namespace capart::obs
{

namespace
{

/** Read @p key of @p j as a count; counts ride as JSON numbers (they
 *  are far below 2^53 in any real sweep). */
std::uint64_t
asCount(const Json &j, const std::string &key)
{
    return static_cast<std::uint64_t>(j.at(key).asNum(0.0));
}

Json
shardToJson(const ShardStatus &s)
{
    Json j = Json::object();
    j.set("shard", Json(static_cast<double>(s.shard)));
    j.set("pid", Json(static_cast<double>(s.pid)));
    j.set("state", Json(s.state));
    j.set("points_assigned", Json(static_cast<double>(s.pointsAssigned)));
    j.set("points_done", Json(static_cast<double>(s.pointsDone)));
    j.set("points_from_cache", Json(static_cast<double>(s.pointsFromCache)));
    j.set("points_quarantined",
          Json(static_cast<double>(s.pointsQuarantined)));
    j.set("retries", Json(static_cast<double>(s.retries)));
    j.set("spawns", Json(static_cast<double>(s.spawns)));
    j.set("timeout_kills", Json(static_cast<double>(s.timeoutKills)));
    j.set("crashes", Json(static_cast<double>(s.crashes)));
    j.set("last_beat_age_s", Json(s.lastBeatAgeS));
    j.set("current_spec", Json(s.currentSpec));
    j.set("current_spec_hash", Json(hexU64(s.currentSpecHash)));
    j.set("current_elapsed_s", Json(s.currentElapsedS));
    return j;
}

bool
shardFromJson(const Json &j, ShardStatus *out)
{
    if (!j.isObj() || !j.has("shard") || !j.has("state"))
        return false;
    out->shard = static_cast<unsigned>(j.at("shard").asNum(0.0));
    out->pid = static_cast<long>(j.at("pid").asNum(-1.0));
    out->state = j.at("state").asStr("idle");
    out->pointsAssigned = asCount(j, "points_assigned");
    out->pointsDone = asCount(j, "points_done");
    out->pointsFromCache = asCount(j, "points_from_cache");
    out->pointsQuarantined = asCount(j, "points_quarantined");
    out->retries = asCount(j, "retries");
    out->spawns = asCount(j, "spawns");
    out->timeoutKills = asCount(j, "timeout_kills");
    out->crashes = asCount(j, "crashes");
    out->lastBeatAgeS = j.at("last_beat_age_s").asNum(-1.0);
    out->currentSpec = j.at("current_spec").asStr("");
    if (!parseU64(j.at("current_spec_hash").asStr("0"),
                  &out->currentSpecHash))
        out->currentSpecHash = 0;
    out->currentElapsedS = j.at("current_elapsed_s").asNum(0.0);
    return true;
}

} // namespace

Json
statusToJson(const SweepStatus &status)
{
    Json j = Json::object();
    j.set("version", Json(static_cast<double>(SweepStatus::kVersion)));
    j.set("bench", Json(status.bench));
    j.set("run", Json(status.run));
    j.set("state", Json(status.state));
    // Exact for any 64-bit seed; JSON numbers are doubles.
    j.set("seed", Json(std::to_string(status.seed)));
    j.set("shards", Json(static_cast<double>(status.shards)));
    j.set("points_total", Json(static_cast<double>(status.pointsTotal)));
    j.set("points_done", Json(static_cast<double>(status.pointsDone)));
    j.set("points_from_cache",
          Json(static_cast<double>(status.pointsFromCache)));
    j.set("points_quarantined",
          Json(static_cast<double>(status.pointsQuarantined)));
    j.set("retries", Json(static_cast<double>(status.retries)));
    j.set("start_ts_ms", Json(status.startTsMs));
    j.set("updated_ts_ms", Json(status.updatedTsMs));
    j.set("throughput_points_per_min", Json(status.throughputPointsPerMin));
    j.set("eta_s", Json(status.etaS));
    j.set("cache_hit_rate", Json(status.cacheHitRate));
    Json shards = Json::array();
    for (const ShardStatus &s : status.shardStates)
        shards.push(shardToJson(s));
    j.set("shard_states", std::move(shards));
    return j;
}

std::string
encodeStatus(const SweepStatus &status)
{
    return statusToJson(status).dump() + "\n";
}

bool
decodeStatus(const std::string &text, SweepStatus *out)
{
    const auto doc = Json::parse(text);
    if (!doc || !doc->isObj())
        return false;
    if (static_cast<int>(doc->at("version").asNum(0.0)) !=
        SweepStatus::kVersion)
        return false;
    if (!doc->has("bench") || !doc->has("state") ||
        !doc->has("shard_states"))
        return false;
    SweepStatus s;
    s.bench = doc->at("bench").asStr("");
    s.run = doc->at("run").asStr("");
    s.state = doc->at("state").asStr("running");
    if (!parseU64(doc->at("seed").asStr("0"), &s.seed))
        s.seed = 0;
    s.shards = static_cast<unsigned>(doc->at("shards").asNum(0.0));
    s.pointsTotal = asCount(*doc, "points_total");
    s.pointsDone = asCount(*doc, "points_done");
    s.pointsFromCache = asCount(*doc, "points_from_cache");
    s.pointsQuarantined = asCount(*doc, "points_quarantined");
    s.retries = asCount(*doc, "retries");
    s.startTsMs = doc->at("start_ts_ms").asNum(0.0);
    s.updatedTsMs = doc->at("updated_ts_ms").asNum(0.0);
    s.throughputPointsPerMin =
        doc->at("throughput_points_per_min").asNum(0.0);
    s.etaS = doc->at("eta_s").asNum(-1.0);
    s.cacheHitRate = doc->at("cache_hit_rate").asNum(0.0);
    for (const Json &sj : doc->at("shard_states").arr) {
        ShardStatus shard;
        if (!shardFromJson(sj, &shard))
            return false;
        s.shardStates.push_back(std::move(shard));
    }
    *out = std::move(s);
    return true;
}

bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
        if (!os) {
            std::fprintf(stderr, "capart: cannot write %s\n", tmp.c_str());
            return false;
        }
        os << content;
        os.flush();
        if (!os) {
            std::fprintf(stderr, "capart: short write to %s\n", tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "capart: cannot rename %s over %s\n",
                     tmp.c_str(), path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
writeStatusFile(const std::string &path, const SweepStatus &status)
{
    return writeFileAtomic(path, encodeStatus(status));
}

bool
readStatusFile(const std::string &path, SweepStatus *out)
{
    std::string text;
    return readFile(path, &text) && decodeStatus(text, out);
}

} // namespace capart::obs
