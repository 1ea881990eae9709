#include "report/report.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "common/json.hh"
#include "stats/summary.hh"

namespace capart::report
{

namespace
{

/** Relative worse-direction mean delta that warns. */
constexpr double kWarnDelta = 0.02;
/** Relative worse-direction mean delta that fails. */
constexpr double kFailDelta = 0.05;
/** Sign-test significance level for a FAIL. */
constexpr double kAlpha = 0.05;

/** Suffix test for metric-direction classification. */
bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string
formatDouble(double v, const char *fmt = "%.4g")
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

} // namespace

std::size_t
RunGroup::cachedPoints() const
{
    std::size_t n = 0;
    for (const obs::RunRecord &r : points)
        n += r.fromCache;
    return n;
}

std::vector<RunGroup>
groupRuns(const std::vector<obs::RunRecord> &records)
{
    std::vector<RunGroup> groups;
    std::map<std::string, std::size_t> index;
    for (const obs::RunRecord &rec : records) {
        const auto it = index.find(rec.run);
        RunGroup *g;
        if (it == index.end()) {
            index.emplace(rec.run, groups.size());
            groups.push_back(RunGroup{});
            g = &groups.back();
            g->run = rec.run;
            g->bench = rec.bench;
            g->startTsMs = rec.tsMs;
        } else {
            g = &groups[it->second];
        }
        if (rec.tsMs > 0.0 &&
            (g->startTsMs <= 0.0 || rec.tsMs < g->startTsMs))
            g->startTsMs = rec.tsMs;
        if (rec.kind == "bench")
            g->benchRecords.push_back(rec);
        else if (rec.kind == "run_interrupted")
            g->interruptions.push_back(rec);
        else if (rec.kind == "point")
            g->points.push_back(rec);
        // Anything else (the retired kinds, future kinds) is dropped:
        // only complete points may enter metric pairing.
    }
    std::sort(groups.begin(), groups.end(),
              [](const RunGroup &a, const RunGroup &b) {
                  if (a.startTsMs != b.startTsMs)
                      return a.startTsMs < b.startTsMs;
                  return a.run < b.run;
              });
    return groups;
}

int
metricDirection(const std::string &name)
{
    // Higher is worse: anything measuring time, energy, misses, or
    // foreground slowdown.
    if (endsWith(name, "fg_slowdown") || endsWith(name, "time_s") ||
        endsWith(name, "_energy_j") || endsWith(name, "energy_vs_seq") ||
        endsWith(name, "mpki") || endsWith(name, "apki") ||
        endsWith(name, "fg_delta_vs_biased") ||
        endsWith(name, "timed_out") || endsWith(name, "unfairness") ||
        endsWith(name, "slo_breaches"))
        return 1;
    // Higher is better: throughput, IPC, and speedup figures —
    // including host simulation throughput (bench_micro_simulator) and
    // the N-app system-throughput metric.
    if (endsWith(name, "throughput_ips") || endsWith(name, "ipc") ||
        endsWith(name, "weighted_speedup") || endsWith(name, "stp") ||
        endsWith(name, "bg_vs_biased") || endsWith(name, "accesses_per_s"))
        return -1;
    // Neutral diagnostics (way counts and anything unrecognized):
    // reported, never gated on.
    return 0;
}

std::vector<std::string>
metricNames(const RunGroup &g)
{
    std::vector<std::string> names;
    for (const obs::RunRecord &r : g.points) {
        for (const auto &[name, value] : r.metrics) {
            if (std::find(names.begin(), names.end(), name) == names.end())
                names.push_back(name);
        }
    }
    return names;
}

MetricStats
metricStats(const RunGroup &g, const std::string &name)
{
    MetricStats s;
    double sum = 0.0;
    for (const obs::RunRecord &r : g.points) {
        for (const auto &[n, v] : r.metrics) {
            if (n != name)
                continue;
            if (s.n == 0) {
                s.min = s.max = v;
            } else {
                s.min = std::min(s.min, v);
                s.max = std::max(s.max, v);
            }
            sum += v;
            ++s.n;
        }
    }
    if (s.n > 0)
        s.mean = sum / static_cast<double>(s.n);
    return s;
}

void
writeBenchJson(std::ostream &os, const std::vector<RunGroup> &groups)
{
    Json doc = Json::object();
    doc.set("version", Json(1.0));
    doc.set("schema", Json("capart-bench-timeseries"));
    Json runs = Json::array();
    for (const RunGroup &g : groups) {
        Json entry = Json::object();
        entry.set("run", Json(g.run));
        entry.set("bench", Json(g.bench));
        entry.set("ts_ms", Json(g.startTsMs));
        entry.set("points", Json(static_cast<double>(g.points.size())));
        entry.set("cached_points",
                  Json(static_cast<double>(g.cachedPoints())));
        entry.set("interrupted", Json(!g.interruptions.empty()));
        if (!g.benchRecords.empty())
            entry.set("wall_ms", Json(g.benchRecords.back().wallMs));
        Json metrics = Json::object();
        for (const std::string &name : metricNames(g)) {
            const MetricStats s = metricStats(g, name);
            Json m = Json::object();
            m.set("mean", Json(s.mean));
            m.set("min", Json(s.min));
            m.set("max", Json(s.max));
            m.set("n", Json(static_cast<double>(s.n)));
            metrics.set(name, std::move(m));
        }
        entry.set("metrics", std::move(metrics));
        runs.push(std::move(entry));
    }
    doc.set("runs", std::move(runs));
    doc.write(os);
    os << "\n";
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Pass:
        return "PASS";
      case Verdict::Warn:
        return "WARN";
      case Verdict::Fail:
        return "FAIL";
    }
    return "PASS";
}

RunComparison
compareRuns(const RunGroup &baseline, const RunGroup &current)
{
    RunComparison cmp;
    cmp.baselineRun = baseline.run;
    cmp.currentRun = current.run;

    // First point per spec hash per side: the pairing key is "the same
    // canonical experiment", immune to completion-order shuffling.
    std::map<std::uint64_t, const obs::RunRecord *> base_by_spec;
    for (const obs::RunRecord &r : baseline.points)
        base_by_spec.emplace(r.specHash, &r);
    std::map<std::uint64_t, const obs::RunRecord *> cur_by_spec;
    for (const obs::RunRecord &r : current.points)
        cur_by_spec.emplace(r.specHash, &r);

    for (const std::string &name : metricNames(current)) {
        const int dir = metricDirection(name);
        MetricComparison mc;
        mc.name = name;
        mc.direction = dir;

        double base_sum = 0.0;
        double cur_sum = 0.0;
        double worst_move = 0.0;
        const double kAbsent = std::nan("");
        for (const auto &[spec, cur_rec] : cur_by_spec) {
            const auto bit = base_by_spec.find(spec);
            if (bit == base_by_spec.end())
                continue;
            const double cur_v = cur_rec->metric(name, kAbsent);
            const double base_v = bit->second->metric(name, kAbsent);
            if (std::isnan(cur_v) || std::isnan(base_v))
                continue;
            ++mc.pairs;
            base_sum += base_v;
            cur_sum += cur_v;
            const double worse_move =
                static_cast<double>(dir) * (cur_v - base_v);
            if (worse_move > 0.0) {
                ++mc.worse;
                if (worse_move > worst_move) {
                    worst_move = worse_move;
                    mc.worstSpecHash = spec;
                    mc.worstAttrFile = cur_rec->attrFile;
                }
            } else if (worse_move < 0.0) {
                ++mc.better;
            }
            // dir == 0: both counters stay 0; the metric reports only.
        }
        if (mc.pairs == 0)
            continue;
        mc.baselineMean = base_sum / static_cast<double>(mc.pairs);
        mc.currentMean = cur_sum / static_cast<double>(mc.pairs);
        const double denom = std::abs(mc.baselineMean);
        mc.relDelta = denom > 1e-12
                          ? (mc.currentMean - mc.baselineMean) / denom
                          : 0.0;
        mc.pValue = signTestPValue(mc.worse, mc.better);

        if (dir != 0) {
            const double worse_delta =
                static_cast<double>(dir) * mc.relDelta;
            const bool majority_worse = mc.worse > mc.better;
            // Six untied pairs is the smallest sample where a sign
            // test can reach p <= 0.05 (2^-6 < 0.05 <= 2^-5); below
            // that the threshold and majority alone must decide.
            const bool testable = mc.worse + mc.better >= 6;
            if (worse_delta >= kFailDelta && majority_worse &&
                (!testable || mc.pValue <= kAlpha)) {
                mc.verdict = Verdict::Fail;
            } else if (worse_delta >= kWarnDelta &&
                       mc.worse >= mc.better) {
                mc.verdict = Verdict::Warn;
            }
        }
        if (static_cast<int>(mc.verdict) >
            static_cast<int>(cmp.verdict))
            cmp.verdict = mc.verdict;
        cmp.metrics.push_back(std::move(mc));
    }
    return cmp;
}

void
writeMarkdown(std::ostream &os, const std::vector<RunGroup> &groups,
              const RunComparison *cmp)
{
    os << "# capart benchmark report\n\n";

    os << "## Runs\n\n";
    if (groups.empty()) {
        os << "_No runs in the ledger._\n";
        return;
    }
    os << "| run | bench | points | cached | wall (s) | |\n";
    os << "|---|---|---:|---:|---:|---|\n";
    for (const RunGroup &g : groups) {
        os << "| " << g.run << " | " << g.bench << " | "
           << g.points.size() << " | " << g.cachedPoints() << " | "
           << (g.benchRecords.empty()
                   ? ""
                   : formatDouble(g.benchRecords.back().wallMs / 1000.0,
                                  "%.2f"))
           << " | " << (g.interruptions.empty() ? "" : "interrupted")
           << " |\n";
    }

    if (!cmp)
        return;

    os << "\n## Regression gate: " << verdictName(cmp->verdict) << "\n\n";
    os << "Baseline `" << cmp->baselineRun << "` vs current `"
       << cmp->currentRun << "`; warn at "
       << formatDouble(kWarnDelta * 100.0, "%.3g") << "%, fail at "
       << formatDouble(kFailDelta * 100.0, "%.3g")
       << "% worse-direction mean delta (sign test alpha "
       << formatDouble(kAlpha, "%.3g")
       << "). Directions: `+` higher is worse, `-` higher is better, "
          "`.` not gated.\n\n";
    os << "| metric | dir | baseline | current | delta | pairs "
          "| worse/better | p | verdict |\n";
    os << "|---|---|---:|---:|---:|---:|---:|---:|---|\n";
    for (const MetricComparison &m : cmp->metrics) {
        const char dir_ch =
            m.direction > 0 ? '+' : (m.direction < 0 ? '-' : '.');
        os << "| " << m.name << " | " << dir_ch << " | "
           << formatDouble(m.baselineMean) << " | "
           << formatDouble(m.currentMean) << " | "
           << formatDouble(m.relDelta * 100.0, "%+.2f") << "% | "
           << m.pairs << " | " << m.worse << "/" << m.better << " | "
           << formatDouble(m.pValue, "%.3g") << " | "
           << verdictName(m.verdict) << " |\n";
    }

    // Point every gated metric at the single pair that regressed
    // hardest, with the attribution side file when the run recorded
    // one — its samples and decision journal are the fastest path
    // from "the gate fired" to "who ate the cache".
    bool have_worst = false;
    for (const MetricComparison &m : cmp->metrics) {
        if (m.verdict == Verdict::Pass || m.worstSpecHash == 0)
            continue;
        if (!have_worst) {
            have_worst = true;
            os << "\n### Worst pairs\n\n";
        }
        char hash[24];
        std::snprintf(hash, sizeof(hash), "%016" PRIx64, m.worstSpecHash);
        os << "- `" << m.name << "`: spec `0x" << hash << "`";
        if (!m.worstAttrFile.empty())
            os << " — attribution timeline `" << m.worstAttrFile << "`";
        os << "\n";
    }
}

} // namespace capart::report
