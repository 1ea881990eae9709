/**
 * @file
 * Tests for the live sweep-fleet observability plane: the status.json
 * schema and its atomic replacement (obs/status.hh), cross-process
 * trace stitching (obs/trace_stitch.hh), and the report layer's
 * per-shard rendering.
 *
 * Everything here is pure file/string plumbing — none of it depends on
 * the runtime obs switch, so the tests run identically under
 * CAPART_OBS=OFF (the supervisor's *write sites* are what the gate
 * compiles out; the end-to-end gating is covered by test_shard.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "obs/run_ledger.hh"
#include "obs/status.hh"
#include "obs/trace_stitch.hh"
#include "report/report.hh"

namespace capart
{
namespace
{

std::string
freshDir(const char *name)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

obs::SweepStatus
sampleStatus()
{
    obs::SweepStatus s;
    s.bench = "fig13_dynamic";
    s.run = "fig13_dynamic-12345-1700000000000";
    s.state = "running";
    s.seed = 0xDEADBEEFCAFEull;
    s.shards = 2;
    s.pointsTotal = 10;
    s.pointsDone = 6;
    s.pointsFromCache = 2;
    s.pointsQuarantined = 1;
    s.retries = 3;
    s.startTsMs = 1.7e12;
    s.updatedTsMs = 1.7e12 + 60000.0;
    s.throughputPointsPerMin = 6.0;
    s.etaS = 40.0;
    s.cacheHitRate = 2.0 / 6.0;
    obs::ShardStatus a;
    a.shard = 0;
    a.pid = 4242;
    a.state = "running";
    a.pointsAssigned = 5;
    a.pointsDone = 3;
    a.pointsFromCache = 1;
    a.retries = 2;
    a.spawns = 3;
    a.timeoutKills = 1;
    a.crashes = 1;
    a.lastBeatAgeS = 0.25;
    a.currentSpec = "solo app=ferret threads=4 ways=12";
    a.currentSpecHash = 0x0123456789ABCDEFull;
    a.currentElapsedS = 1.5;
    obs::ShardStatus b;
    b.shard = 1;
    b.state = "settled";
    b.pointsAssigned = 5;
    b.pointsDone = 3;
    b.pointsFromCache = 1;
    b.pointsQuarantined = 1;
    b.retries = 1;
    b.spawns = 1;
    b.lastBeatAgeS = -1.0;
    s.shardStates = {a, b};
    return s;
}

// ------------------------------------------------ status schema --

TEST(SweepStatus, EncodeDecodeRoundTripsEveryField)
{
    const obs::SweepStatus s = sampleStatus();
    obs::SweepStatus r;
    ASSERT_TRUE(obs::decodeStatus(obs::encodeStatus(s), &r));

    EXPECT_EQ(r.bench, s.bench);
    EXPECT_EQ(r.run, s.run);
    EXPECT_EQ(r.state, s.state);
    EXPECT_EQ(r.seed, s.seed);
    EXPECT_EQ(r.shards, s.shards);
    EXPECT_EQ(r.pointsTotal, s.pointsTotal);
    EXPECT_EQ(r.pointsDone, s.pointsDone);
    EXPECT_EQ(r.pointsFromCache, s.pointsFromCache);
    EXPECT_EQ(r.pointsQuarantined, s.pointsQuarantined);
    EXPECT_EQ(r.retries, s.retries);
    EXPECT_EQ(r.startTsMs, s.startTsMs);
    EXPECT_EQ(r.updatedTsMs, s.updatedTsMs);
    EXPECT_EQ(r.throughputPointsPerMin, s.throughputPointsPerMin);
    EXPECT_EQ(r.etaS, s.etaS);
    EXPECT_EQ(r.cacheHitRate, s.cacheHitRate);
    ASSERT_EQ(r.shardStates.size(), 2u);
    const obs::ShardStatus &a = r.shardStates[0];
    EXPECT_EQ(a.shard, 0u);
    EXPECT_EQ(a.pid, 4242);
    EXPECT_EQ(a.state, "running");
    EXPECT_EQ(a.pointsAssigned, 5u);
    EXPECT_EQ(a.pointsDone, 3u);
    EXPECT_EQ(a.pointsFromCache, 1u);
    EXPECT_EQ(a.retries, 2u);
    EXPECT_EQ(a.spawns, 3u);
    EXPECT_EQ(a.timeoutKills, 1u);
    EXPECT_EQ(a.crashes, 1u);
    EXPECT_EQ(a.lastBeatAgeS, 0.25);
    EXPECT_EQ(a.currentSpec, "solo app=ferret threads=4 ways=12");
    EXPECT_EQ(a.currentSpecHash, 0x0123456789ABCDEFull);
    EXPECT_EQ(a.currentElapsedS, 1.5);
    const obs::ShardStatus &b = r.shardStates[1];
    EXPECT_EQ(b.state, "settled");
    EXPECT_EQ(b.pid, -1);
    EXPECT_EQ(b.pointsQuarantined, 1u);
    EXPECT_EQ(b.lastBeatAgeS, -1.0);
    EXPECT_EQ(b.currentSpec, "");
}

TEST(SweepStatus, SeedSurvivesAbove2To53)
{
    // Seeds are 64-bit; JSON numbers are doubles, exact only below
    // 2^53 — the codec must carry seeds as decimal strings.
    obs::SweepStatus s = sampleStatus();
    s.seed = 0xFFFFFFFFFFFFFFFFull;
    obs::SweepStatus r;
    ASSERT_TRUE(obs::decodeStatus(obs::encodeStatus(s), &r));
    EXPECT_EQ(r.seed, 0xFFFFFFFFFFFFFFFFull);
    ASSERT_FALSE(r.shardStates.empty());
    EXPECT_EQ(r.shardStates[0].currentSpecHash, 0x0123456789ABCDEFull);
}

TEST(SweepStatus, DecodeRejectsGarbageAndSchemaMismatch)
{
    obs::SweepStatus out;
    EXPECT_FALSE(obs::decodeStatus("", &out));
    EXPECT_FALSE(obs::decodeStatus("{\"torn", &out));
    EXPECT_FALSE(obs::decodeStatus("[1,2,3]", &out));

    // A future schema version must be rejected, not misread.
    Json doc = obs::statusToJson(sampleStatus());
    doc.set("version", Json(99.0));
    EXPECT_FALSE(obs::decodeStatus(doc.dump(), &out));
}

// ------------------------------------------- atomic replacement --

TEST(SweepStatus, AtomicReplaceNeverShowsATornDocument)
{
    const std::string dir = freshDir("capart_status_atomic");
    const std::string path = dir + "/status.json";

    // Two same-length complete documents; a reader must only ever see
    // one of them whole, never a mix or a prefix.
    const std::string a(8192, 'a');
    const std::string b(8192, 'b');
    ASSERT_TRUE(obs::writeFileAtomic(path, a));

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::thread reader([&] {
        while (!stop.load()) {
            const std::string got = slurp(path);
            if (got != a && got != b)
                torn.fetch_add(1);
        }
    });
    for (int i = 0; i < 400; ++i)
        ASSERT_TRUE(obs::writeFileAtomic(path, (i % 2) ? a : b));
    stop.store(true);
    reader.join();
    EXPECT_EQ(torn.load(), 0);
    std::filesystem::remove_all(dir);
}

TEST(SweepStatus, ConcurrentStatusReaderAlwaysDecodes)
{
    const std::string dir = freshDir("capart_status_reader");
    const std::string path = dir + "/status.json";
    obs::SweepStatus s = sampleStatus();
    ASSERT_TRUE(obs::writeStatusFile(path, s));

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::thread reader([&] {
        while (!stop.load()) {
            obs::SweepStatus r;
            if (!obs::readStatusFile(path, &r))
                failures.fetch_add(1);
            else if (r.bench != "fig13_dynamic")
                failures.fetch_add(1);
        }
    });
    for (int i = 0; i < 300; ++i) {
        s.pointsDone = static_cast<std::uint64_t>(i);
        ASSERT_TRUE(obs::writeStatusFile(path, s));
    }
    stop.store(true);
    reader.join();
    EXPECT_EQ(failures.load(), 0);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ trace stitch --

/** A minimal but complete Tracer-shaped trace file. */
void
writeTraceFile(const std::string &path, double base_ts,
               std::uint64_t dropped)
{
    std::ofstream os(path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 1, \"args\": {\"name\": \"simulated time (us)\"}},\n";
    os << "{\"name\": \"quantum\", \"cat\": \"sim\", \"ph\": \"X\", "
          "\"ts\": "
       << base_ts + 5
       << ", \"dur\": 2, \"pid\": 1, \"tid\": 1, \"args\": {}},\n";
    os << "{\"name\": \"point\", \"cat\": \"exec\", \"ph\": \"i\", "
          "\"ts\": "
       << base_ts << ", \"s\": \"t\", \"pid\": 2, \"tid\": 1, "
          "\"args\": {}}\n";
    os << "], \"metadata\": {\"dropped_events\": " << dropped
       << ", \"retained_events\": 2}}\n";
}

TEST(TraceStitch, RemapsPidsSortsAndLabelsSources)
{
    const std::string dir = freshDir("capart_stitch_basic");
    writeTraceFile(dir + "/sup.trace", 100.0, 1);
    writeTraceFile(dir + "/w0.trace", 50.0, 2);

    std::ostringstream os;
    obs::StitchStats stats;
    ASSERT_TRUE(obs::stitchTraces({{dir + "/sup.trace", "supervisor"},
                                   {dir + "/w0.trace", "shard 0"}},
                                  os, &stats));
    EXPECT_EQ(stats.sourcesRead, 2u);
    EXPECT_EQ(stats.sourcesMissing, 0u);
    EXPECT_EQ(stats.sourcesMalformed, 0u);
    EXPECT_EQ(stats.events, 4u);
    EXPECT_EQ(stats.droppedEvents, 3u);

    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc && doc->isObj()) << os.str();
    const Json &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArr());

    // Sources keep both clock-domain tracks under globally unique
    // pids: source 0 → {1,2}, source 1 → {3,4}; each pid carries a
    // labelled process_name and a process_sort_index.
    std::set<double> pids;
    std::set<double> named;
    std::set<double> sorted;
    std::vector<double> ts_order;
    for (const Json &e : events.arr) {
        const std::string ph = e.at("ph").asStr();
        const double pid = e.at("pid").asNum(-1);
        if (ph == "M") {
            if (e.at("name").asStr() == "process_name") {
                named.insert(pid);
                const std::string label =
                    e.at("args").at("name").asStr();
                if (pid <= 2)
                    EXPECT_EQ(label.rfind("supervisor", 0), 0u) << label;
                else
                    EXPECT_EQ(label.rfind("shard 0", 0), 0u) << label;
            }
            if (e.at("name").asStr() == "process_sort_index")
                sorted.insert(pid);
            continue;
        }
        pids.insert(pid);
        ts_order.push_back(e.at("ts").asNum(-1));
        EXPECT_FALSE(e.at("name").asStr().empty());
    }
    EXPECT_EQ(pids, (std::set<double>{1, 2, 3, 4}));
    EXPECT_EQ(named, (std::set<double>{1, 2, 3, 4}));
    EXPECT_EQ(sorted, (std::set<double>{1, 2, 3, 4}));
    ASSERT_EQ(ts_order.size(), 4u);
    for (std::size_t i = 1; i < ts_order.size(); ++i)
        EXPECT_LE(ts_order[i - 1], ts_order[i]) << i;

    const Json &meta = doc->at("metadata");
    EXPECT_EQ(meta.at("stitched_sources").asNum(), 2.0);
    EXPECT_EQ(meta.at("retained_events").asNum(), 4.0);
    EXPECT_EQ(meta.at("dropped_events").asNum(), 3.0);
    std::filesystem::remove_all(dir);
}

TEST(TraceStitch, ToleratesTornAndMissingSources)
{
    const std::string dir = freshDir("capart_stitch_torn");
    writeTraceFile(dir + "/good.trace", 10.0, 0);
    {
        // A worker SIGKILLed mid-export leaves half a document.
        std::ofstream os(dir + "/torn.trace");
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [{\"na";
    }

    std::ostringstream os;
    obs::StitchStats stats;
    ASSERT_TRUE(obs::stitchTraces({{dir + "/good.trace", "supervisor"},
                                   {dir + "/torn.trace", "shard 0"},
                                   {dir + "/gone.trace", "shard 1"}},
                                  os, &stats));
    EXPECT_EQ(stats.sourcesRead, 1u);
    EXPECT_EQ(stats.sourcesMalformed, 1u);
    EXPECT_EQ(stats.sourcesMissing, 1u);
    EXPECT_EQ(stats.events, 2u);

    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc && doc->isObj());
    EXPECT_EQ(doc->at("metadata").at("sources_missing").asNum(), 1.0);
    EXPECT_EQ(doc->at("metadata").at("sources_malformed").asNum(), 1.0);
    std::filesystem::remove_all(dir);
}

TEST(TraceStitch, AllSourcesUnreadableStillWritesAFrame)
{
    const std::string dir = freshDir("capart_stitch_empty");
    std::ostringstream os;
    obs::StitchStats stats;
    EXPECT_FALSE(obs::stitchTraces({{dir + "/a.trace", "shard 0"},
                                    {dir + "/b.trace", "shard 1"}},
                                   os, &stats));
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc && doc->isObj());
    EXPECT_TRUE(doc->at("traceEvents").isArr());
    EXPECT_EQ(stats.events, 0u);
    std::filesystem::remove_all(dir);
}

TEST(TraceStitch, FileVariantReplacesAtomically)
{
    const std::string dir = freshDir("capart_stitch_file");
    writeTraceFile(dir + "/w.trace", 0.0, 0);
    const std::string out = dir + "/stitched.trace";
    ASSERT_TRUE(obs::stitchTraceFiles({{dir + "/w.trace", "shard 0"}},
                                      out));
    EXPECT_FALSE(std::filesystem::exists(out + ".tmp"));
    const auto doc = Json::parse(slurp(out));
    ASSERT_TRUE(doc && doc->isObj());
    EXPECT_EQ(doc->at("metadata").at("stitched_sources").asNum(), 1.0);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------- report rendering --

obs::RunRecord
shardRec(unsigned shard, double wall_ms, double done, double cached,
         double retries, double spawns, double quarantined, double kills,
         double crashes)
{
    obs::RunRecord r;
    r.kind = "shard";
    r.bench = "shardtest";
    r.run = "run-a";
    r.tsMs = 1000.0;
    r.wallMs = wall_ms;
    r.metrics = {{"shard", static_cast<double>(shard)},
                 {"points_assigned", done + quarantined},
                 {"points_done", done},
                 {"points_from_cache", cached},
                 {"points_quarantined", quarantined},
                 {"retries", retries},
                 {"spawns", spawns},
                 {"timeout_kills", kills},
                 {"crashes", crashes}};
    return r;
}

TEST(ReportShards, GroupedAndRenderedAsTheShardTable)
{
    std::vector<obs::RunRecord> records;
    obs::RunRecord p;
    p.kind = "point";
    p.bench = "shardtest";
    p.run = "run-a";
    p.spec = "spec-1";
    p.specHash = 0x1;
    p.tsMs = 999.0;
    p.metrics = {{"time_s", 1.0}};
    records.push_back(p);
    // Deliberately out of shard order: the table must sort by index.
    records.push_back(shardRec(1, 2500.0, 3, 1, 2, 4, 1, 1, 2));
    records.push_back(shardRec(0, 1500.0, 4, 2, 0, 1, 0, 0, 0));

    const auto groups = report::groupRuns(records);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].shards.size(), 2u);
    EXPECT_EQ(groups[0].points.size(), 1u);

    std::ostringstream os;
    report::writeMarkdown(os, groups, nullptr, report::GateOptions{});
    const std::string md = os.str();
    EXPECT_NE(md.find("### Shards"), std::string::npos);
    EXPECT_NE(md.find("| retries | spawns | quarantined |"),
              std::string::npos)
        << md;
    // shard 0: 4 done of which 2 cached → 2 computed, 1.50 s wall.
    const std::size_t row0 =
        md.find("| run-a | 0 | 1.50 | 2 | 2 | 0 | 1 | 0 | 0 | 0 |");
    // shard 1: 2 retries over 4 spawns (crashes respawn the worker).
    const std::size_t row1 =
        md.find("| run-a | 1 | 2.50 | 2 | 1 | 2 | 4 | 1 | 1 | 2 |");
    EXPECT_NE(row0, std::string::npos) << md;
    EXPECT_NE(row1, std::string::npos) << md;
    EXPECT_LT(row0, row1); // sorted by shard index
}

} // namespace
} // namespace capart
