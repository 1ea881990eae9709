#include "workloads.hh"

#include <cmath>
#include <map>

#include "core/partitioner.hh"
#include "exec/result_cache.hh"
#include "workload/catalog.hh"
#include "workload/generator.hh"

namespace capart::harness
{

namespace
{

/** `fig13 --quick` and `fig08 --quick`: 0.3 x their 0.06 default. */
constexpr double kPairScale = 0.06 * 0.3;
/** `fig09n` at its default scale. */
constexpr double kNAppScale = 0.04;
constexpr unsigned kNAppCores = 16;
constexpr unsigned kNAppWays = 20;
constexpr unsigned kNAppThreadsEach = 2;
/** Fig. 13's perf window (15 us). */
constexpr double kFig13Window = 15e-6;

std::vector<std::string>
representatives()
{
    std::vector<std::string> reps;
    for (const auto name : Catalog::clusterRepresentatives())
        reps.emplace_back(name);
    return reps;
}

std::vector<exec::ExperimentSpec>
pairDynamicSpecs(bool smoke)
{
    const unsigned policies = exec::policyBit(Policy::Shared) |
                              exec::policyBit(Policy::Biased) |
                              exec::policyBit(Policy::Dynamic);
    const std::vector<std::string> reps = representatives();
    std::vector<exec::ExperimentSpec> specs;
    for (const std::string &fg : reps)
        for (const std::string &bg : reps)
            specs.push_back(exec::consolidationSpec(fg, bg, policies,
                                                    kPairScale,
                                                    kFig13Window));
    if (smoke)
        specs.resize(3);
    return specs;
}

std::vector<exec::ExperimentSpec>
nappSpecs(bool smoke)
{
    unsigned policies = 0;
    for (const NPolicy p : {NPolicy::Shared, NPolicy::Fair, NPolicy::Ucp,
                            NPolicy::Lfoc, NPolicy::Dynamic})
        policies |= npolicyBit(p);
    // fig09n's full roster: 3 variants x {4, 8, 12} apps; the smoke
    // size keeps the three 4-app mixes.
    std::vector<exec::ExperimentSpec> specs;
    for (const unsigned variant : {0u, 1u, 2u}) {
        for (const std::size_t n : {std::size_t{4}, std::size_t{8},
                                    std::size_t{12}}) {
            if (smoke && n != 4)
                continue;
            std::vector<std::string> names;
            for (const AppParams &a : Catalog::nAppMix(n, variant))
                names.push_back(a.name);
            specs.push_back(exec::nappSpec(names, kNAppCores, kNAppWays,
                                           policies, kNAppThreadsEach,
                                           kNAppScale));
        }
    }
    return specs;
}

std::vector<exec::ExperimentSpec>
corunSpecs(bool smoke)
{
    // fig08's layout — solo baselines first, then fg-major pairs — with
    // every catalog app as foreground and the six representatives as
    // background.
    const std::vector<std::string> reps = representatives();
    std::vector<std::string> fgs;
    if (smoke) {
        fgs = {reps[0], reps[1]};
    } else {
        for (const AppParams &a : Catalog::all())
            fgs.push_back(a.name);
    }
    std::vector<exec::ExperimentSpec> specs;
    for (const std::string &app : fgs)
        specs.push_back(exec::soloSpec(app, 4, 12, kPairScale));
    if (smoke) {
        specs.push_back(exec::pairSpec(reps[0], reps[1], kPairScale));
        return specs;
    }
    for (const std::string &fg : fgs)
        for (const std::string &bg : reps)
            specs.push_back(exec::pairSpec(fg, bg, kPairScale));
    return specs;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Instructions per second of a solo run of @p spec taking @p time. */
double
soloIps(const exec::ExperimentSpec &spec, double time)
{
    const AppParams scaled = Catalog::byName(spec.fg).scaled(spec.scale);
    double insts = 0.0;
    for (unsigned t = 0; t < spec.threads; ++t)
        insts += static_cast<double>(threadWorkShare(scaled, t, spec.threads));
    return insts / time;
}

} // namespace

bool
makeWorkload(const std::string &name, bool smoke, Workload *out)
{
    Workload w;
    w.name = name;
    if (name == "pair_dynamic") {
        w.pid = 1;
        w.specs = pairDynamicSpecs(smoke);
    } else if (name == "napp_mixes") {
        w.pid = 2;
        w.specs = nappSpecs(smoke);
    } else if (name == "corun_shared") {
        w.pid = 3;
        w.specs = corunSpecs(smoke);
    } else if (name == "napp_obs") {
        w.pid = 4;
        w.obsArmed = true;
        w.specs = nappSpecs(smoke);
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

std::uint64_t
simDigest(const std::vector<exec::SweepResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const exec::SweepResult &r : results) {
        for (const char c : exec::ResultCache::encode(r)) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= '\n';
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
checkPoint(const exec::ExperimentSpec &spec, const exec::SweepResult &r)
{
    exec::SweepResult parsed;
    if (!exec::ResultCache::decode(exec::ResultCache::encode(r), &parsed))
        return "non-finite result field";
    if (r.timedOut)
        return "simulation hit its maxSimTime stop";
    switch (spec.kind) {
      case exec::SpecKind::Solo:
        if (!(r.time > 0.0 && r.ipc > 0.0))
            return "solo time or IPC not positive";
        break;
      case exec::SpecKind::Pair:
        if (!(r.time > 0.0 && r.bgThroughput > 0.0))
            return "pair time or background throughput not positive";
        break;
      case exec::SpecKind::Consolidation:
        for (const Policy p : {Policy::Shared, Policy::Fair,
                               Policy::Biased, Policy::Dynamic}) {
            if (!(spec.policies & exec::policyBit(p)))
                continue;
            const exec::PolicyOutcome &po = r.policy[static_cast<int>(p)];
            if (!po.present)
                return std::string(policyName(p)) + " outcome missing";
            if (!(po.bgThroughput > 0.0 && po.fgSlowdown > 0.0))
                return std::string(policyName(p)) +
                       " throughput or slowdown not positive";
        }
        break;
      case exec::SpecKind::NApp: {
        const double n =
            static_cast<double>(exec::splitAppList(spec.napps).size());
        for (unsigned i = 0; i < kNumNPolicies; ++i) {
            const NPolicy p = static_cast<NPolicy>(i);
            if (!(spec.npolicies & npolicyBit(p)))
                continue;
            const exec::NAppPolicyOutcome &po = r.napp[i];
            const std::string name = npolicyName(p);
            if (!po.present)
                return name + " outcome missing";
            if (!(po.stp > 0.0 && po.stp <= n))
                return name + " STP outside (0, N]";
            if (!(po.unfairness >= 1.0))
                return name + " unfairness below 1";
            if (!(po.throughputIps > 0.0 && po.fgSlowdown > 0.0))
                return name + " throughput or slowdown not positive";
        }
        break;
      }
    }
    return {};
}

Fidelity
fidelity(const Workload &w, const std::vector<exec::SweepResult> &results)
{
    Fidelity f;
    std::vector<double> slow, ratio;
    if (w.name == "pair_dynamic") {
        std::vector<double> fg_delta;
        for (const exec::SweepResult &r : results) {
            const exec::PolicyOutcome &bi =
                r.policy[static_cast<int>(Policy::Biased)];
            const exec::PolicyOutcome &dy =
                r.policy[static_cast<int>(Policy::Dynamic)];
            slow.push_back(dy.fgSlowdown);
            ratio.push_back(dy.bgThroughput / bi.bgThroughput);
            fg_delta.push_back(dy.fgSlowdown - bi.fgSlowdown);
        }
        f.paperGapPct = std::fabs(100.0 * (mean(ratio) - 1.0) - 19.0);
        f.fgCostPct = 100.0 * mean(fg_delta);
    } else if (w.name == "corun_shared") {
        std::map<std::string, std::pair<const exec::ExperimentSpec *,
                                        double>>
            solo;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (w.specs[i].kind == exec::SpecKind::Solo)
                solo[w.specs[i].fg] = {&w.specs[i], results[i].time};
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            const exec::ExperimentSpec &s = w.specs[i];
            if (s.kind != exec::SpecKind::Pair)
                continue;
            slow.push_back(results[i].time / solo.at(s.fg).second);
            const auto &[bg_spec, bg_time] = solo.at(s.bg);
            ratio.push_back(results[i].bgThroughput /
                            soloIps(*bg_spec, bg_time));
        }
    } else {
        const int dyn = static_cast<int>(NPolicy::Dynamic);
        const int fair = static_cast<int>(NPolicy::Fair);
        for (const exec::SweepResult &r : results) {
            slow.push_back(r.napp[dyn].fgSlowdown);
            ratio.push_back(r.napp[dyn].stp / r.napp[fair].stp);
        }
    }
    f.fgSlowdown = mean(slow);
    f.throughputRatio = mean(ratio);
    return f;
}

std::string
pointLabel(const exec::ExperimentSpec &spec)
{
    if (spec.kind == exec::SpecKind::NApp) {
        std::string label;
        for (const std::string &name : exec::splitAppList(spec.napps))
            label += (label.empty() ? "" : "+") + name;
        return label;
    }
    return spec.bg.empty() ? spec.fg : spec.fg + "+" + spec.bg;
}

} // namespace capart::harness
