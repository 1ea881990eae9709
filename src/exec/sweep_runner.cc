#include "exec/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/util.hh"
#include "core/co_scheduler.hh"
#include "core/napp.hh"
#include "core/static_policies.hh"
#include "exec/result_cache.hh"
#include "obs/metrics.hh"
#include "obs/run_ledger.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "workload/catalog.hh"

namespace capart::exec
{

std::uint64_t
specCacheKey(const ExperimentSpec &spec, std::uint64_t base_seed)
{
    return mixSeed(base_seed, spec.hash());
}

SweepResult
runSpec(const ExperimentSpec &spec, std::uint64_t base_seed)
{
    const std::uint64_t seed = mixSeed(base_seed, spec.hash());
    SweepResult out;

    switch (spec.kind) {
      case SpecKind::Solo: {
        SoloOptions o;
        o.threads = spec.threads;
        o.ways = spec.ways;
        o.scale = spec.scale;
        o.system.seed = seed;
        o.system.prefetch = PrefetchConfig::allEnabled(spec.prefetchAll);
        if (spec.perfWindow > 0.0)
            o.system.perfWindow = spec.perfWindow;
        const SoloResult r = runSolo(Catalog::byName(spec.fg), o);
        out.time = r.time;
        out.socketEnergy = r.socketEnergy;
        out.wallEnergy = r.wallEnergy;
        out.mpki = r.app.mpki();
        out.apki = r.app.apki();
        out.ipc = r.app.ipc();
        out.timedOut = r.timedOut;
        break;
      }
      case SpecKind::Pair: {
        PairOptions o;
        o.fgThreads = spec.threads;
        o.bgThreads = spec.threads;
        o.bgContinuous = spec.bgContinuous;
        o.scale = spec.scale;
        o.system.seed = seed;
        if (spec.perfWindow > 0.0)
            o.system.perfWindow = spec.perfWindow;
        if (spec.fgMaskWays > 0) {
            const SplitMasks m = splitWays(
                spec.fgMaskWays, SystemConfig{}.hierarchy.llc.ways);
            o.fgMask = m.fg;
            o.bgMask = m.bg;
        }
        const PairResult r =
            runPair(Catalog::byName(spec.fg), Catalog::byName(spec.bg), o);
        out.time = r.fgTime;
        out.bgThroughput = r.bgThroughput;
        out.socketEnergy = r.socketEnergy;
        out.wallEnergy = r.wallEnergy;
        out.mpki = r.fg.mpki();
        out.apki = r.fg.apki();
        out.ipc = r.fg.ipc();
        out.timedOut = r.timedOut;
        break;
      }
      case SpecKind::Consolidation: {
        capart_assert(spec.policies != 0);
        CoScheduleOptions co;
        co.threadsEach = spec.threads;
        co.scale = spec.scale;
        co.system.seed = seed;
        // Evaluate the SLO whenever observability is armed, so sweep
        // points feed the dashboard's burn-rate strip. The monitor
        // reads the windows each continuous run recorded, after the
        // run: it adds no simulation and changes no output bit
        // (tests/test_core.cc, test_attribution.cc).
        co.monitorSlo = obs::enabled();
        if (spec.perfWindow > 0.0)
            co.system.perfWindow = spec.perfWindow;
        CoScheduler cs(Catalog::byName(spec.fg),
                       Catalog::byName(spec.bg), co);
        for (const Policy p : {Policy::Shared, Policy::Fair,
                               Policy::Biased, Policy::Dynamic}) {
            if (!(spec.policies & policyBit(p)))
                continue;
            obs::TraceSpan policy_span(policyName(p), "sweep");
            const ConsolidationSummary s = cs.summarize(p);
            PolicyOutcome &po = out.policy[static_cast<int>(p)];
            po.present = true;
            po.fgSlowdown = s.fgSlowdown;
            po.bgThroughput = s.bgThroughput;
            po.energyVsSequential = s.energyVsSequential;
            po.wallEnergyVsSequential = s.wallEnergyVsSequential;
            po.weightedSpeedup = s.weightedSpeedup;
            po.fgWays = s.fgWays;
        }
        break;
      }
      case SpecKind::NApp: {
        capart_assert(spec.npolicies != 0);
        const std::vector<std::string> names = splitAppList(spec.napps);
        capart_assert(!names.empty());
        NAppStudyOptions so;
        so.run.system = nAppSystem(spec.cores, spec.llcWays, seed);
        so.run.scale = spec.scale;
        if (spec.perfWindow > 0.0)
            so.run.system.perfWindow = spec.perfWindow;
        std::vector<NAppMember> members;
        members.reserve(names.size());
        for (std::size_t i = 0; i < names.size(); ++i) {
            NAppMember m;
            m.params = Catalog::byName(names[i]);
            m.threads = spec.threads;
            m.continuous = i != 0; // app 0 is the foreground
            members.push_back(std::move(m));
        }
        NAppStudy study(std::move(members), so);
        for (unsigned p = 0; p < kNumNPolicies; ++p) {
            const NPolicy policy = static_cast<NPolicy>(p);
            if (!(spec.npolicies & npolicyBit(policy)))
                continue;
            obs::TraceSpan policy_span(npolicyName(policy), "sweep");
            const NAppPolicySummary s = study.summarize(policy);
            NAppPolicyOutcome &po = out.napp[p];
            po.present = true;
            po.stp = s.stp;
            po.throughputIps = s.throughputIps;
            po.unfairness = s.unfairness;
            po.fgSlowdown = s.fgSlowdown;
            po.socketEnergyJ = s.socketEnergyJ;
            po.wallEnergyJ = s.wallEnergyJ;
            po.sloBreaches = s.sloBreaches;
            po.remasks = static_cast<unsigned>(s.remasks);
            out.timedOut = out.timedOut || s.timedOut;
        }
        break;
      }
    }
    return out;
}

namespace
{

/**
 * Flatten one finished point into a `point` ledger record, the one
 * encoding of fresh and cache-replayed points alike.
 */
obs::RunRecord
pointRecord(const SweepRunnerOptions &opts, const ExperimentSpec &spec,
            const SweepResult &r, double wall_ms)
{
    obs::RunRecord rec;
    rec.kind = "point";
    rec.bench = opts.benchName;
    rec.run = opts.runId;
    rec.spec = spec.canonical();
    rec.specHash = spec.hash();
    rec.seed = opts.baseSeed;
    rec.tsMs = unixMillisNow();
    rec.wallMs = wall_ms;
    rec.simS = r.time;
    rec.fromCache = r.fromCache;
    auto &m = rec.metrics;
    // Only fields runSpec set for this kind: consolidation points leave
    // the flat fields at their defaults, N-app points set only timedOut.
    if (spec.kind == SpecKind::Solo || spec.kind == SpecKind::Pair) {
        m.emplace_back("time_s", r.time);
        m.emplace_back("socket_energy_j", r.socketEnergy);
        m.emplace_back("wall_energy_j", r.wallEnergy);
        m.emplace_back("mpki", r.mpki);
        m.emplace_back("apki", r.apki);
        m.emplace_back("ipc", r.ipc);
    }
    if (r.bgThroughput > 0.0)
        m.emplace_back("bg_throughput_ips", r.bgThroughput);
    if (spec.kind != SpecKind::Consolidation)
        m.emplace_back("timed_out", r.timedOut ? 1.0 : 0.0);
    for (const Policy p : {Policy::Shared, Policy::Fair, Policy::Biased,
                           Policy::Dynamic}) {
        const PolicyOutcome &po = r.policy[static_cast<int>(p)];
        if (!po.present)
            continue;
        const std::string prefix = policyName(p);
        m.emplace_back(prefix + ".fg_slowdown", po.fgSlowdown);
        m.emplace_back(prefix + ".bg_throughput_ips", po.bgThroughput);
        m.emplace_back(prefix + ".energy_vs_seq", po.energyVsSequential);
        m.emplace_back(prefix + ".wall_energy_vs_seq",
                       po.wallEnergyVsSequential);
        m.emplace_back(prefix + ".weighted_speedup", po.weightedSpeedup);
        m.emplace_back(prefix + ".fg_ways",
                       static_cast<double>(po.fgWays));
    }
    for (unsigned p = 0; p < kNumNPolicies; ++p) {
        const NAppPolicyOutcome &po = r.napp[p];
        if (!po.present)
            continue;
        const std::string prefix = npolicyName(static_cast<NPolicy>(p));
        m.emplace_back(prefix + ".stp", po.stp);
        m.emplace_back(prefix + ".throughput_ips", po.throughputIps);
        m.emplace_back(prefix + ".unfairness", po.unfairness);
        m.emplace_back(prefix + ".fg_slowdown", po.fgSlowdown);
        m.emplace_back(prefix + ".socket_energy_j", po.socketEnergyJ);
        m.emplace_back(prefix + ".wall_energy_j", po.wallEnergyJ);
        m.emplace_back(prefix + ".slo_breaches",
                       static_cast<double>(po.sloBreaches));
        m.emplace_back(prefix + ".remasks",
                       static_cast<double>(po.remasks));
    }
    // Headline cross-policy ratios (Figs. 9/13): how close dynamic and
    // shared come to the biased oracle's background throughput, and
    // what the dynamic policy pays in foreground slowdown for it.
    const PolicyOutcome &biased =
        r.policy[static_cast<int>(Policy::Biased)];
    const PolicyOutcome &dynamic =
        r.policy[static_cast<int>(Policy::Dynamic)];
    const PolicyOutcome &shared =
        r.policy[static_cast<int>(Policy::Shared)];
    if (biased.present && biased.bgThroughput > 0.0) {
        if (dynamic.present) {
            m.emplace_back("dynamic.bg_vs_biased",
                           dynamic.bgThroughput / biased.bgThroughput);
            m.emplace_back("dynamic.fg_delta_vs_biased",
                           dynamic.fgSlowdown - biased.fgSlowdown);
        }
        if (shared.present) {
            m.emplace_back("shared.bg_vs_biased",
                           shared.bgThroughput / biased.bgThroughput);
        }
    }
    return rec;
}

/** Side-file path of one point's attribution batch. */
std::string
attrFilePath(const SweepRunnerOptions &opts, const ExperimentSpec &spec)
{
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, spec.hash());
    std::string name = opts.attrDir;
    name += '/';
    name += opts.benchName.empty() ? "sweep" : opts.benchName;
    name += '-';
    name += opts.runId.empty() ? "run" : opts.runId;
    name += '-';
    name += hash;
    name += ".json";
    return name;
}

/** Short human label for one point ("fg", "fg+bg", or the N-app mix
 *  joined with '+' so per-owner charts can name every member). */
std::string
pointLabel(const ExperimentSpec &spec)
{
    if (!spec.napps.empty()) {
        std::string label;
        for (const std::string &name : splitAppList(spec.napps)) {
            if (!label.empty())
                label += '+';
            label += name;
        }
        return label;
    }
    std::string label = spec.fg;
    if (!spec.bg.empty()) {
        label += '+';
        label += spec.bg;
    }
    return label;
}

/**
 * Drain the calling worker's attribution scope for the point it just
 * computed and write it as the point's side file, which holds the
 * point's only copy of its partitioner decisions. Returns the
 * side-file path ("" when nothing was recorded or the write failed).
 */
std::string
exportPointAttribution(const SweepRunnerOptions &opts,
                       const ExperimentSpec &spec)
{
    obs::AttributionBatch batch = obs::timeseries().drainScope();
    if (batch.samples.empty() && batch.journal.empty())
        return {};
    batch.label = pointLabel(spec);
    batch.specHash = spec.hash();
    batch.attrFile = attrFilePath(opts, spec);
    {
        std::ofstream out(batch.attrFile);
        if (out) {
            obs::writeAttributionJson(out, batch);
            if (obs::enabled())
                obs::metrics().counter("exec.attr_files").inc();
        } else {
            std::fprintf(stderr,
                         "capart: cannot write attribution file %s\n",
                         batch.attrFile.c_str());
            batch.attrFile.clear();
        }
    }
    return batch.attrFile;
}

/**
 * Compute one point end to end and record everything about it: trace
 * span, points-computed counter, optional cache store, attribution
 * side file and the `point` ledger record.
 */
SweepResult
computePoint(const SweepRunnerOptions &opts, const ExperimentSpec &spec,
             ResultCache *cache)
{
    obs::TraceSpan point_span("sweep.point", "sweep",
                              {{"spec_hash",
                                static_cast<double>(spec.hash())}});
    if (obs::enabled())
        obs::metrics().counter("exec.points_computed").inc();
    const auto start = std::chrono::steady_clock::now();
    const SweepResult r = runSpec(spec, opts.baseSeed);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (cache)
        cache->store(specCacheKey(spec, opts.baseSeed), r);
    std::string attr_file;
    if (!opts.attrDir.empty() && obs::enabled())
        attr_file = exportPointAttribution(opts, spec);
    if (opts.ledger) {
        obs::RunRecord rec = pointRecord(opts, spec, r, wall_ms);
        rec.attrFile = attr_file;
        opts.ledger->append(rec);
    }
    return r;
}

} // namespace

SweepRunner::SweepRunner(SweepRunnerOptions opts) : opts_(std::move(opts))
{
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<ExperimentSpec> &specs)
{
    std::vector<SweepResult> results(specs.size());

    // A spec listed more than once runs, caches and ledgers at its
    // first listing only; first[i] is that listing of specs[i], and
    // listings[f] counts the positions first listing f answers for.
    std::vector<std::size_t> first(specs.size());
    std::vector<std::size_t> listings(specs.size(), 0);
    {
        std::unordered_map<std::uint64_t, std::size_t> by_hash;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            first[i] = by_hash.emplace(specs[i].hash(), i).first->second;
            ++listings[first[i]];
        }
    }

    std::unique_ptr<ResultCache> cache;
    if (!opts_.cachePath.empty())
        cache = std::make_unique<ResultCache>(opts_.cachePath);

    std::mutex progress_mutex;
    std::size_t done = 0;
    const auto report = [&](std::size_t i) {
        // Caller holds progress_mutex. Once per listing of specs[i].
        for (std::size_t n = 0; n < listings[i]; ++n) {
            ++done;
            if (opts_.progress)
                opts_.progress(done, specs.size());
        }
    };

    // Resolve cache hits up front; collect the points still to compute.
    std::vector<std::size_t> todo;
    todo.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (first[i] != i)
            continue;
        const std::uint64_t key = specCacheKey(specs[i], opts_.baseSeed);
        if (cache && cache->lookup(key, &results[i])) {
            if (obs::enabled())
                obs::metrics().counter("exec.cache_hits").inc();
            if (opts_.ledger) {
                results[i].fromCache = true;
                opts_.ledger->append(
                    pointRecord(opts_, specs[i], results[i], 0.0));
            }
            std::lock_guard<std::mutex> lock(progress_mutex);
            report(i);
        } else {
            todo.push_back(i);
        }
    }

    const auto compute = [&](std::size_t i) {
        results[i] = computePoint(opts_, specs[i], cache.get());
        std::lock_guard<std::mutex> lock(progress_mutex);
        report(i);
    };

    if (opts_.jobs <= 1) {
        for (const std::size_t i : todo)
            compute(i);
    } else {
        // Every point is a whole simulation known up front, so workers
        // just claim the next uncomputed index. The first failure stops
        // further claims and is rethrown after the join, so run() fails
        // as the inline loop does.
        std::atomic<std::size_t> next{0};
        std::exception_ptr first_error;
        const auto worker = [&] {
            try {
                for (std::size_t k = next++; k < todo.size(); k = next++)
                    compute(todo[k]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                next = todo.size();
            }
        };
        {
            // jthreads join when the scope ends, also when starting one
            // throws.
            std::vector<std::jthread> workers;
            const std::size_t n =
                std::min<std::size_t>(opts_.jobs, todo.size());
            workers.reserve(n);
            for (std::size_t t = 0; t < n; ++t)
                workers.emplace_back(worker);
        }
        if (first_error)
            std::rethrow_exception(first_error);
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (first[i] != i)
            results[i] = results[first[i]];
    }
    return results;
}

} // namespace capart::exec
