/**
 * @file
 * Tests for the run ledger (src/obs/run_ledger) and the regression
 * reporting pipeline over it (src/report): record round-trips,
 * crash-tolerant loading, run grouping, the BENCH_capart.json time
 * series, and the pass/warn/fail gate — including the headline
 * acceptance case, a synthetic 20% foreground-slowdown regression
 * that must FAIL while an unperturbed re-run PASSes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/run_ledger.hh"
#include "report/report.hh"

namespace capart
{
namespace
{

namespace fs = std::filesystem;

std::string
tempPath(const char *name)
{
    return (fs::temp_directory_path() /
            (std::string("capart-report-test-") + name))
        .string();
}

obs::RunRecord
makeRecord()
{
    obs::RunRecord rec;
    rec.kind = "point";
    rec.bench = "fig13_dynamic";
    rec.run = "fig13_dynamic-1-1000";
    rec.spec = "capart-spec-v1|kind=consol|fg=a|bg=b";
    rec.specHash = 0xdeadbeefcafef00dULL;
    rec.seed = 0xffffffffffffffffULL; // exercises the exact u64 lane
    rec.tsMs = 1.7e12;
    rec.wallMs = 123.5;
    rec.simS = 0.25;
    rec.fromCache = true;
    rec.metrics = {{"dynamic.fg_slowdown", 1.015},
                   {"dynamic.bg_throughput_ips", 3.2e9}};
    return rec;
}

/**
 * A synthetic run: @p n points with distinct spec hashes, FG slowdown
 * @p slowdown and BG throughput @p bg_ips at every point.
 */
report::RunGroup
syntheticRun(const std::string &id, double ts_ms, unsigned n,
             double slowdown, double bg_ips)
{
    report::RunGroup g;
    g.run = id;
    g.bench = "synthetic";
    g.startTsMs = ts_ms;
    for (unsigned i = 0; i < n; ++i) {
        obs::RunRecord rec;
        rec.kind = "point";
        rec.bench = g.bench;
        rec.run = id;
        rec.specHash = 0x1000 + i;
        rec.tsMs = ts_ms + i;
        rec.metrics = {{"dynamic.fg_slowdown", slowdown},
                       {"dynamic.bg_throughput_ips", bg_ips}};
        g.points.push_back(std::move(rec));
    }
    return g;
}

// ------------------------------------------------------------ ledger --

TEST(RunLedger, EncodeDecodeRoundTripsEveryField)
{
    const obs::RunRecord rec = makeRecord();
    const std::string line = obs::RunLedger::encode(rec);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "a record must be exactly one line";

    obs::RunRecord back;
    ASSERT_TRUE(obs::RunLedger::decode(line, &back));
    EXPECT_EQ(back.kind, rec.kind);
    EXPECT_EQ(back.bench, rec.bench);
    EXPECT_EQ(back.run, rec.run);
    EXPECT_EQ(back.spec, rec.spec);
    EXPECT_EQ(back.specHash, rec.specHash) << "u64 must round-trip exactly";
    EXPECT_EQ(back.seed, rec.seed) << "u64 must round-trip exactly";
    EXPECT_DOUBLE_EQ(back.tsMs, rec.tsMs);
    EXPECT_DOUBLE_EQ(back.wallMs, rec.wallMs);
    EXPECT_DOUBLE_EQ(back.simS, rec.simS);
    EXPECT_EQ(back.fromCache, rec.fromCache);
    ASSERT_EQ(back.metrics.size(), rec.metrics.size());
    EXPECT_EQ(back.metrics[0].first, "dynamic.fg_slowdown");
    EXPECT_DOUBLE_EQ(back.metrics[0].second, 1.015);
}

TEST(RunLedger, BenchRecordsWithCountersStillLoad)
{
    // Older builds copied the obs counters into every `bench` record.
    // A fig13 bench line as they wrote it must still load whole; new
    // records carry no `counters` key.
    const std::string old_bench =
        R"({"v":1,"kind":"bench","bench":"fig13_dynamic","run":"fig13_dyna)"
        R"(mic-1-1792208749896","spec_hash":"0x0000000000000000","seed":"1)"
        R"(","ts_ms":1792208785407,"wall_ms":35511.112194000001,"sim_s":0,)"
        R"("cached":false,"spec":"","metrics":{},"counters":{"exec.points_)"
        R"(computed":36,"partitioner.decisions_journaled":1316,"sim.quanta")"
        R"(:273479,"slo.windows":1774}})";
    const std::string path = tempPath("old_bench.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        out << old_bench << '\n';
    }
    const auto loaded = obs::RunLedger::load(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.skipped, 0u);
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(loaded.records[0].kind, "bench");
    EXPECT_DOUBLE_EQ(loaded.records[0].wallMs, 35511.112194000001);
    EXPECT_TRUE(loaded.records[0].metrics.empty());
    EXPECT_EQ(obs::RunLedger::encode(loaded.records[0]).find("counters"),
              std::string::npos);
}

TEST(RunLedger, DecodeRejectsGarbageAndWrongVersions)
{
    obs::RunRecord out;
    EXPECT_FALSE(obs::RunLedger::decode("", &out));
    EXPECT_FALSE(obs::RunLedger::decode("not json", &out));
    EXPECT_FALSE(obs::RunLedger::decode("{\"v\":999,\"kind\":\"point\"}",
                                        &out));
    EXPECT_FALSE(obs::RunLedger::decode("{\"v\":1,\"kind\":\"mystery\"}",
                                        &out));
    // A truncated tail — the crash case load() must tolerate.
    const std::string line = obs::RunLedger::encode(makeRecord());
    EXPECT_FALSE(
        obs::RunLedger::decode(line.substr(0, line.size() / 2), &out));
}

TEST(RunLedger, AppendThenLoadWithTornTail)
{
    const std::string path = tempPath("torn.jsonl");
    std::remove(path.c_str());
    {
        obs::RunLedger ledger(path);
        ASSERT_TRUE(ledger.ok());
        ledger.append(makeRecord());
        ledger.append(makeRecord());
        EXPECT_EQ(ledger.appended(), 2u);
    }
    // Simulate a crash mid-write: a half record at the tail.
    {
        std::ofstream out(path, std::ios::app);
        out << obs::RunLedger::encode(makeRecord()).substr(0, 40);
    }
    const auto loaded = obs::RunLedger::load(path);
    EXPECT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.skipped, 1u);
    std::remove(path.c_str());
}

TEST(RunLedger, MissingFileLoadsAsEmpty)
{
    const auto loaded =
        obs::RunLedger::load(tempPath("does-not-exist.jsonl"));
    EXPECT_TRUE(loaded.records.empty());
    EXPECT_EQ(loaded.skipped, 0u);
}

TEST(RunLedger, RetiredDecisionKindsStillLoadAndJoinNoBucket)
{
    // Older builds ledgered a copy of every journaled decision. A
    // fig13 `decision` line as they wrote it, and a fig09n
    // `npartition_decision` line with its metric map shortened: both
    // must still load, never counted as skipped, and no report bucket
    // may take them.
    const std::string pair_decision =
        R"({"v":1,"kind":"decision","bench":"fig13_dynamic","run":"fig13_dy)"
        R"(namic-12345-1792233977320","spec_hash":"0x21887a25e9301883","see)"
        R"(d":"12345","ts_ms":1792233979455,"wall_ms":0,"sim_s":0,"cached":)"
        R"(false,"spec":"capart-spec-v1|kind=consol|fg=429.mcf|bg=429.mcf|t)"
        R"(hreads=4|ways=12|prefetch=1|bgcont=1|fgmask=0|policies=13|scale=)"
        R"(0x1.26e978d4fdf3bp-6|window=0x1.f75104d551d69p-17","rule":"probe)"
        R"(_shrink","metrics":{"t_us":32.761470588235298,"raw_mpki":0,"smoo)"
        R"(thed_mpki":0,"last_mpki":0,"have_last":0,"phase":0,"probing":1,")"
        R"(retry_pending":0,"retry_ways":0,"fg_ways":11,"thr3":0.1000000000)"
        R"(0000001,"min_denominator":0.5,"min_fg_ways":2,"max_fg_ways":11,")"
        R"(cand_hold_mask":2047,"cand_shrink_mask":1023,"cand_grow_mask":20)"
        R"(47,"cand_max_mask":2047,"target_fg_ways":10,"probing_after":1,"d)"
        R"(elta":0,"chosen_fg_mask":1023,"chosen_bg_mask":3072,"applied":1,)"
        R"("installed_fg_ways":10,"total_ways":12},"counters":{}})";
    const std::string napp_decision =
        R"({"v":1,"kind":"npartition_decision","bench":"fig09n_napp_policie)"
        R"(s","run":"fig09n_napp_policies-12345-1792234000077","spec_hash":)"
        R"("0x80d39543f11420db","seed":"12345","ts_ms":1792234002870,"wall_)"
        R"(ms":0,"sim_s":0,"cached":false,"spec":"capart-spec-v1|kind=napp|)"
        R"(fg=|bg=|threads=2|ways=12|prefetch=1|bgcont=1|fgmask=0|policies=)"
        R"(0|scale=0x1.89374bc6a7efap-7|window=0x0p+0|napps=429.mcf,470.lbm)"
        R"(,ferret,fop,462.libquantum,batik,471.omnetpp,459.GemsFDTD|cores=)"
        R"(16|llcways=20|npolicies=59","rule":"shared","metrics":{"t_us":0,)"
        R"("policy":0,"num_apps":8,"total_ways":20,"seq":0,"applied":1},"co)"
        R"(unters":{}})";
    // The process-sharded sweep's bookkeeping, verbatim from a
    // `--shards=2` fig13 run with two points failing every attempt: a
    // worker's `point_start`, the supervisor's `point_failed` and one
    // `shard` summary. Same contract.
    const std::string point_start =
        R"({"v":1,"kind":"point_start","bench":"fig13_dynamic","run":"fig13)"
        R"(_dynamic-1-1792292761434","spec_hash":"0xfecb71f87568730c","seed)"
        R"(":"1","ts_ms":1792292761434,"wall_ms":0,"sim_s":0,"cached":false)"
        R"(,"spec":"capart-spec-v1|kind=consol|fg=429.mcf|bg=429.mcf|thread)"
        R"(s=4|ways=12|prefetch=1|bgcont=1|fgmask=0|policies=13|scale=0x1.4)"
        R"(7ae147ae147bp-6|window=0x1.f75104d551d69p-17","metrics":{"attemp)"
        R"(t":0,"shard":0},"counters":{}})";
    const std::string point_failed =
        R"({"v":1,"kind":"point_failed","bench":"fig13_dynamic","run":"fig1)"
        R"(3_dynamic-1-1792292761432","spec_hash":"0x0e64251d09e8219c","see)"
        R"(d":"1","ts_ms":1792292762101,"wall_ms":0,"sim_s":0,"cached":fals)"
        R"(e,"spec":"capart-spec-v1|kind=consol|fg=429.mcf|bg=fop|threads=4)"
        R"(|ways=12|prefetch=1|bgcont=1|fgmask=0|policies=13|scale=0x1.47ae)"
        R"(147ae147bp-6|window=0x1.f75104d551d69p-17","rule":"crash","metri)"
        R"(cs":{"attempts":2,"shard":0},"counters":{}})";
    const std::string shard_summary =
        R"({"v":1,"kind":"shard","bench":"fig13_dynamic","run":"fig13_dynam)"
        R"(ic-1-1792292761432","spec_hash":"0x0000000000000000","seed":"1",)"
        R"("ts_ms":1792292775642,"wall_ms":5920.7679699999999,"sim_s":0,"ca)"
        R"(ched":false,"spec":"","metrics":{"shard":0,"points_assigned":18,)"
        R"("points_done":16,"points_from_cache":0,"points_quarantined":2,"r)"
        R"(etries":2,"spawns":5,"timeout_kills":0,"crashes":4},"counters":{)"
        R"(}})";
    const std::string path = tempPath("retired.jsonl");
    obs::RunRecord point = makeRecord();
    point.run = "fig13_dynamic-12345-1792233977320";
    {
        std::ofstream out(path, std::ios::trunc);
        out << obs::RunLedger::encode(point) << '\n'
            << pair_decision << '\n'
            << napp_decision << '\n'
            << point_start << '\n'
            << point_failed << '\n'
            << shard_summary << '\n';
    }
    const auto loaded = obs::RunLedger::load(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.skipped, 0u);
    ASSERT_EQ(loaded.records.size(), 6u);
    EXPECT_EQ(loaded.records[1].kind, "decision");
    EXPECT_EQ(loaded.records[1].rule, "probe_shrink");
    EXPECT_EQ(loaded.records[2].kind, "npartition_decision");
    EXPECT_EQ(loaded.records[2].rule, "shared");
    EXPECT_EQ(loaded.records[3].kind, "point_start");
    EXPECT_EQ(loaded.records[4].kind, "point_failed");
    EXPECT_EQ(loaded.records[4].rule, "crash");
    EXPECT_EQ(loaded.records[5].kind, "shard");
    EXPECT_EQ(loaded.records[5].metric("points_quarantined"), 2.0);

    std::size_t bucketed = 0;
    for (const report::RunGroup &g : report::groupRuns(loaded.records)) {
        bucketed += g.points.size() + g.benchRecords.size() +
                    g.interruptions.size();
        if (g.run == point.run) {
            EXPECT_EQ(g.points.size(), 1u);
        }
    }
    EXPECT_EQ(bucketed, 1u) << "only the point may land in a bucket";
}

// ---------------------------------------------------------- grouping --

TEST(Report, GroupsByRunIdAndSortsByStartTime)
{
    std::vector<obs::RunRecord> records;
    const auto push = [&](const char *run, const char *kind, double ts) {
        obs::RunRecord rec;
        rec.run = run;
        rec.kind = kind;
        rec.bench = "b";
        rec.tsMs = ts;
        records.push_back(rec);
    };
    // Interleaved completion order, newer run first in the file.
    push("run-b", "point", 2000.0);
    push("run-a", "point", 1005.0);
    push("run-b", "point", 2001.0);
    push("run-a", "point", 1000.0);
    push("run-a", "bench", 1900.0);

    const auto groups = report::groupRuns(records);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].run, "run-a") << "groups sort by start time";
    EXPECT_EQ(groups[0].points.size(), 2u);
    EXPECT_EQ(groups[0].benchRecords.size(), 1u);
    EXPECT_DOUBLE_EQ(groups[0].startTsMs, 1000.0)
        << "start is the earliest record, not the first seen";
    EXPECT_EQ(groups[1].run, "run-b");
    EXPECT_EQ(groups[1].points.size(), 2u);
}

TEST(Report, RunWallTimeComesFromTheBenchRecord)
{
    // Four points of 1 s host time each, run on parallel workers: the
    // run took 1.25 s, not the 4 s the points sum to. A run with no
    // bench record (killed before exit, or points only) shows none.
    std::vector<obs::RunRecord> records;
    for (unsigned i = 0; i < 4; ++i) {
        obs::RunRecord p = makeRecord();
        p.run = "run-a";
        p.specHash = 0x100 + i;
        p.tsMs = 1000.0 + i;
        p.wallMs = 1000.0;
        records.push_back(p);
    }
    obs::RunRecord b = makeRecord();
    b.kind = "bench";
    b.run = "run-a";
    b.tsMs = 2000.0;
    b.wallMs = 1250.0;
    records.push_back(b);
    obs::RunRecord orphan = makeRecord();
    orphan.run = "run-b";
    orphan.tsMs = 3000.0;
    orphan.wallMs = 1000.0;
    records.push_back(orphan);
    const auto groups = report::groupRuns(records);
    ASSERT_EQ(groups.size(), 2u);

    std::ostringstream js;
    report::writeBenchJson(js, groups);
    const auto doc = Json::parse(js.str());
    ASSERT_TRUE(doc.has_value());
    const Json &runs = doc->at("runs");
    ASSERT_EQ(runs.arr.size(), 2u);
    EXPECT_DOUBLE_EQ(runs.arr[0].at("wall_ms").asNum(), 1250.0);
    EXPECT_FALSE(runs.arr[1].has("wall_ms"));

    std::ostringstream md;
    report::writeMarkdown(md, groups, nullptr);
    EXPECT_NE(md.str().find("| run-a | fig13_dynamic | 4 | 4 | 1.25 |  |"),
              std::string::npos)
        << md.str();
    EXPECT_NE(md.str().find("| run-b | fig13_dynamic | 1 | 1 |  |  |"),
              std::string::npos)
        << md.str();
}

TEST(Report, WorstPairLinksItsSideFile)
{
    const auto base = syntheticRun("base", 1000.0, 8, 1.01, 3e9);
    auto cur = syntheticRun("cur", 2000.0, 8, 1.01 * 1.20, 3e9);
    cur.points[3].metrics[0].second = 1.01 * 1.50;
    cur.points[3].attrFile = "obs/attr/cur-0000000000001003.json";
    const auto cmp = report::compareRuns(base, cur);
    std::ostringstream os;
    report::writeMarkdown(os, {base, cur}, &cmp);
    EXPECT_NE(os.str().find("### Worst pairs\n\n- `dynamic.fg_slowdown`: "
                            "spec `0x0000000000001003` — attribution "
                            "timeline `obs/attr/cur-0000000000001003.json`"
                            "\n"),
              std::string::npos)
        << os.str();
}

TEST(Report, MetricDirections)
{
    EXPECT_EQ(report::metricDirection("dynamic.fg_slowdown"), 1);
    EXPECT_EQ(report::metricDirection("time_s"), 1);
    EXPECT_EQ(report::metricDirection("socket_energy_j"), 1);
    EXPECT_EQ(report::metricDirection("mpki"), 1);
    EXPECT_EQ(report::metricDirection("shared.bg_throughput_ips"), -1);
    EXPECT_EQ(report::metricDirection("ipc"), -1);
    EXPECT_EQ(report::metricDirection("dynamic.weighted_speedup"), -1);
    EXPECT_EQ(report::metricDirection("accesses_per_s"), -1);
    EXPECT_EQ(report::metricDirection("biased.fg_ways"), 0)
        << "way counts are diagnostics, not gated";
    EXPECT_EQ(report::metricDirection("something.unknown"), 0);
}

TEST(Report, BenchJsonIsValidAndOrdered)
{
    const std::vector<report::RunGroup> groups = {
        syntheticRun("run-1", 1000.0, 3, 1.01, 3e9),
        syntheticRun("run-2", 2000.0, 3, 1.02, 3.1e9),
    };
    std::ostringstream os;
    report::writeBenchJson(os, groups);

    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value()) << "BENCH json must parse";
    EXPECT_EQ(doc->at("version").asNum(), 1.0);
    const Json &runs = doc->at("runs");
    ASSERT_EQ(runs.arr.size(), 2u);
    EXPECT_EQ(runs.arr[0].at("run").asStr(), "run-1");
    EXPECT_EQ(runs.arr[1].at("run").asStr(), "run-2");
    EXPECT_EQ(runs.arr[0].at("points").asNum(), 3.0);
    const Json &m =
        runs.arr[0].at("metrics").at("dynamic.fg_slowdown");
    EXPECT_DOUBLE_EQ(m.at("mean").asNum(), 1.01);
    EXPECT_DOUBLE_EQ(m.at("min").asNum(), 1.01);
    EXPECT_EQ(m.at("n").asNum(), 3.0);
}

// -------------------------------------------------------------- gate --

TEST(Report, IdenticalRunsPass)
{
    const auto base = syntheticRun("base", 1000.0, 8, 1.01, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 8, 1.01, 3e9);
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Pass);
    for (const auto &m : cmp.metrics) {
        EXPECT_EQ(m.verdict, report::Verdict::Pass) << m.name;
        EXPECT_EQ(m.pairs, 8u);
    }
}

TEST(Report, SyntheticFgSlowdownRegressionFails)
{
    // The acceptance case: a 20% foreground-slowdown regression across
    // every pair must FAIL the gate; the sign test has 8/8 worse pairs
    // (p = 2^-8 < 0.05).
    const auto base = syntheticRun("base", 1000.0, 8, 1.01, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 8, 1.01 * 1.20, 3e9);
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Fail);

    bool found = false;
    for (const auto &m : cmp.metrics) {
        if (m.name != "dynamic.fg_slowdown")
            continue;
        found = true;
        EXPECT_EQ(m.verdict, report::Verdict::Fail);
        EXPECT_EQ(m.worse, 8u);
        EXPECT_EQ(m.better, 0u);
        EXPECT_LT(m.pValue, 0.05);
        EXPECT_NEAR(m.relDelta, 0.20, 1e-9);
    }
    EXPECT_TRUE(found);
}

TEST(Report, ImprovementNeverFails)
{
    // 20% faster foreground and higher BG throughput: both metrics
    // moved in the *better* direction; the gate must stay PASS.
    const auto base = syntheticRun("base", 1000.0, 8, 1.25, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 8, 1.01, 3.5e9);
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Pass);
}

TEST(Report, ThroughputDropFailsInItsOwnDirection)
{
    const auto base = syntheticRun("base", 1000.0, 8, 1.01, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 8, 1.01, 2.0e9);
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Fail);
}

TEST(Report, SmallDriftOnlyWarns)
{
    const auto base = syntheticRun("base", 1000.0, 8, 1.00, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 8, 1.03, 3e9);
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Warn)
        << "3% worse is past warn (2%) but short of fail (5%)";
}

TEST(Report, FewPairsCanStillFailWithoutSignificance)
{
    // With 3 pairs the sign test cannot reach p <= 0.05 (2^-3 = 0.125);
    // the mean threshold and unanimous direction must carry the FAIL.
    const auto base = syntheticRun("base", 1000.0, 3, 1.01, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 3, 1.21, 3e9);
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Fail);
}

TEST(Report, DisjointSpecsProduceNoPairs)
{
    auto base = syntheticRun("base", 1000.0, 4, 1.01, 3e9);
    auto cur = syntheticRun("cur", 2000.0, 4, 2.0, 3e9);
    for (auto &rec : cur.points)
        rec.specHash += 0x999999; // no overlap with the baseline
    const auto cmp = report::compareRuns(base, cur);
    EXPECT_EQ(cmp.verdict, report::Verdict::Pass);
    EXPECT_TRUE(cmp.metrics.empty())
        << "metrics with zero pairs must not be compared";
}

TEST(Report, MarkdownContainsVerdictAndDeltas)
{
    const auto base = syntheticRun("base", 1000.0, 8, 1.01, 3e9);
    const auto cur = syntheticRun("cur", 2000.0, 8, 1.01 * 1.20, 3e9);
    const auto cmp = report::compareRuns(base, cur);
    std::ostringstream os;
    report::writeMarkdown(os, {base, cur}, &cmp);
    const std::string md = os.str();
    EXPECT_NE(md.find("Regression gate: FAIL"), std::string::npos);
    EXPECT_NE(md.find("dynamic.fg_slowdown"), std::string::npos);
    EXPECT_NE(md.find("| run |"), std::string::npos);
}

} // namespace
} // namespace capart
