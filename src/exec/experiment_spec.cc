#include "exec/experiment_spec.hh"

#include "common/util.hh"

namespace capart::exec
{
namespace
{

const char *
kindName(SpecKind k)
{
    switch (k) {
      case SpecKind::Solo:
        return "solo";
      case SpecKind::Pair:
        return "pair";
      case SpecKind::Consolidation:
        return "consol";
      case SpecKind::NApp:
        return "napp";
    }
    return "?";
}

} // namespace

std::string
ExperimentSpec::canonical() const
{
    std::string s = "capart-spec-v1";
    s += "|kind=";
    s += kindName(kind);
    s += "|fg=" + fg;
    s += "|bg=" + bg;
    s += "|threads=" + std::to_string(threads);
    s += "|ways=" + std::to_string(ways);
    s += "|prefetch=" + std::string(prefetchAll ? "1" : "0");
    s += "|bgcont=" + std::string(bgContinuous ? "1" : "0");
    s += "|fgmask=" + std::to_string(fgMaskWays);
    s += "|policies=" + std::to_string(policies);
    s += "|scale=" + hexDouble(scale);
    s += "|window=" + hexDouble(perfWindow);
    // NApp fields are appended only for NApp specs: the legacy kinds'
    // encodings — and therefore their hashes, derived seeds, and every
    // pinned golden number — must stay byte-identical.
    if (kind == SpecKind::NApp) {
        s += "|napps=" + napps;
        s += "|cores=" + std::to_string(cores);
        s += "|llcways=" + std::to_string(llcWays);
        s += "|npolicies=" + std::to_string(npolicies);
    }
    return s;
}

std::uint64_t
ExperimentSpec::hash() const
{
    return fnv1a64(canonical());
}

ExperimentSpec
soloSpec(const std::string &app, unsigned threads, unsigned ways,
         double scale, bool prefetch_all)
{
    ExperimentSpec s;
    s.kind = SpecKind::Solo;
    s.fg = app;
    s.threads = threads;
    s.ways = ways;
    s.prefetchAll = prefetch_all;
    s.scale = scale;
    return s;
}

ExperimentSpec
pairSpec(const std::string &fg, const std::string &bg, double scale,
         unsigned fg_mask_ways, bool bg_continuous)
{
    ExperimentSpec s;
    s.kind = SpecKind::Pair;
    s.fg = fg;
    s.bg = bg;
    s.fgMaskWays = fg_mask_ways;
    s.bgContinuous = bg_continuous;
    s.scale = scale;
    return s;
}

ExperimentSpec
consolidationSpec(const std::string &fg, const std::string &bg,
                  unsigned policies, double scale, double perf_window)
{
    ExperimentSpec s;
    s.kind = SpecKind::Consolidation;
    s.fg = fg;
    s.bg = bg;
    s.policies = policies;
    s.scale = scale;
    s.perfWindow = perf_window;
    return s;
}

ExperimentSpec
nappSpec(const std::vector<std::string> &apps, unsigned cores,
         unsigned llc_ways, unsigned npolicies, unsigned threads_each,
         double scale, double perf_window)
{
    ExperimentSpec s;
    s.kind = SpecKind::NApp;
    std::string joined;
    for (const std::string &a : apps) {
        if (!joined.empty())
            joined += ',';
        joined += a;
    }
    s.napps = std::move(joined);
    s.cores = cores;
    s.llcWays = llc_ways;
    s.npolicies = npolicies;
    s.threads = threads_each;
    s.scale = scale;
    s.perfWindow = perf_window;
    return s;
}

std::vector<std::string>
splitAppList(const std::string &napps)
{
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start <= napps.size()) {
        const std::size_t comma = napps.find(',', start);
        if (comma == std::string::npos) {
            if (start < napps.size())
                names.push_back(napps.substr(start));
            break;
        }
        names.push_back(napps.substr(start, comma - start));
        start = comma + 1;
    }
    return names;
}

} // namespace capart::exec
