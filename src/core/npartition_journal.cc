#include "core/npartition_journal.hh"

#include <cstdio>
#include <string>

#include "core/ucp.hh"
#include "obs/metrics.hh"

namespace capart
{
namespace
{

std::string
appField(std::size_t i, const char *suffix)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "app%zu.%s", i, suffix);
    return buf;
}

} // namespace

NPartitionDecision
decideNPartition(const NPartitionInputs &in)
{
    NPartitionDecision out;
    switch (in.policy) {
      case NPolicy::Shared:
        out.masks = SharedPartitioner{}.decide(in.apps, in.totalWays);
        break;
      case NPolicy::Fair:
        out.masks = FairPartitioner{}.decide(in.apps, in.totalWays);
        break;
      case NPolicy::Biased:
        out.masks =
            BiasedPartitioner(in.biasedFgWays).decide(in.apps, in.totalWays);
        break;
      case NPolicy::Dynamic:
        // The controller's initial static split (core/napp.cc): the
        // foreground starts at the probe ceiling and every background
        // app shares the complement. Per-window dynamic control
        // replays through core/decision_journal instead.
        out.masks.push_back(WayMask::range(0, in.dynMaxFgWays));
        for (std::size_t i = 1; i < in.apps.size(); ++i)
            out.masks.push_back(WayMask::range(
                in.dynMaxFgWays, in.totalWays - in.dynMaxFgWays));
        break;
      case NPolicy::Ucp:
        out.masks = UcpPartitioner{}.decide(in.apps, in.totalWays);
        break;
      case NPolicy::Lfoc: {
        LfocPartitioner p;
        p.restoreBounceError(in.lfocErrBefore);
        out.masks = p.decide(in.apps, in.totalWays);
        out.classes = p.lastClasses();
        out.targets = p.lastTargets();
        out.errAfter = p.bounceError();
        break;
      }
    }
    return out;
}

obs::JournalEntry
makeNPartitionEntry(double t_us, const NPartitionInputs &in,
                    const NPartitionDecision &out, std::uint64_t seq,
                    bool applied)
{
    obs::JournalEntry e;
    e.tUs = t_us;
    e.kind = "npartition_decision";
    e.rule = npolicyName(in.policy);
    auto f = [&](std::string name, double v) {
        e.fields.emplace_back(std::move(name), v);
    };
    f("policy", static_cast<double>(static_cast<int>(in.policy)));
    f("num_apps", static_cast<double>(in.apps.size()));
    f("total_ways", in.totalWays);
    f("seq", static_cast<double>(seq));
    f("applied", applied ? 1.0 : 0.0);
    // Policy configuration (only what the policy actually reads).
    if (in.policy == NPolicy::Biased)
        f("biased_fg_ways", in.biasedFgWays);
    if (in.policy == NPolicy::Dynamic)
        f("dyn_max_fg_ways", in.dynMaxFgWays);
    // Inputs: the complete observation vector, curves included.
    for (std::size_t i = 0; i < in.apps.size(); ++i) {
        const AppObservation &a = in.apps[i];
        f(appField(i, "id"), a.id);
        f(appField(i, "lat_sensitive"), a.latencySensitive ? 1.0 : 0.0);
        f(appField(i, "mpki"), a.mpki);
        f(appField(i, "apki"), a.apki);
        f(appField(i, "ipc"), a.ipc);
        if (in.policy == NPolicy::Lfoc)
            f(appField(i, "err_before"),
              i < in.lfocErrBefore.size() ? in.lfocErrBefore[i] : 0.0);
        f(appField(i, "curve_len"),
          static_cast<double>(a.missCurve.size()));
        for (std::size_t w = 0; w < a.missCurve.size(); ++w) {
            char s[48];
            std::snprintf(s, sizeof(s), "curve%zu", w);
            f(appField(i, s), a.missCurve[w]);
        }
    }
    // UCP diagnostic: the first lookahead iteration's marginal-utility
    // table — the gain-per-way rate of growing app i by k ways from
    // the all-apps-at-one-way starting state. Derived from the curves
    // (replay recomputes every iteration); journaled so the dashboard
    // can show *why* the allocator favoured an app.
    if (in.policy == NPolicy::Ucp && in.totalWays >= in.apps.size()) {
        bool have_curves = !in.apps.empty();
        for (const AppObservation &a : in.apps) {
            if (a.missCurve.empty())
                have_curves = false;
        }
        if (have_curves) {
            const unsigned remaining =
                in.totalWays - static_cast<unsigned>(in.apps.size());
            for (std::size_t i = 0; i < in.apps.size(); ++i) {
                for (unsigned k = 1; k <= remaining; ++k) {
                    char s[48];
                    std::snprintf(s, sizeof(s), "mu%zu.%u", i, k);
                    f(s, (in.apps[i].curveAt(1) -
                          in.apps[i].curveAt(1 + k)) /
                             k);
                }
            }
        }
    }
    // Outputs: the chosen mask per app plus LFOC introspection.
    for (std::size_t i = 0; i < out.masks.size(); ++i) {
        f(appField(i, "mask"), out.masks[i].bits());
        f(appField(i, "ways"), out.masks[i].count());
        if (i < out.classes.size())
            f(appField(i, "class"),
              static_cast<double>(static_cast<int>(out.classes[i])));
        if (i < out.targets.size())
            f(appField(i, "target"), out.targets[i]);
        if (i < out.errAfter.size())
            f(appField(i, "err_after"), out.errAfter[i]);
    }
    return e;
}

NPartitionInputs
npartitionInputsFromEntry(const obs::JournalEntry &entry)
{
    NPartitionInputs in;
    in.policy = static_cast<NPolicy>(
        static_cast<int>(entry.field("policy")));
    in.totalWays = static_cast<unsigned>(entry.field("total_ways"));
    const std::size_t n =
        static_cast<std::size_t>(entry.field("num_apps"));
    in.apps.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        AppObservation &a = in.apps[i];
        a.id = static_cast<AppId>(entry.field(appField(i, "id")));
        a.latencySensitive =
            entry.field(appField(i, "lat_sensitive")) != 0.0;
        a.mpki = entry.field(appField(i, "mpki"));
        a.apki = entry.field(appField(i, "apki"));
        a.ipc = entry.field(appField(i, "ipc"));
        const std::size_t len = static_cast<std::size_t>(
            entry.field(appField(i, "curve_len")));
        a.missCurve.resize(len);
        for (std::size_t w = 0; w < len; ++w) {
            char s[48];
            std::snprintf(s, sizeof(s), "curve%zu", w);
            a.missCurve[w] = entry.field(appField(i, s));
        }
    }
    if (in.policy == NPolicy::Lfoc) {
        in.lfocErrBefore.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            in.lfocErrBefore[i] =
                entry.field(appField(i, "err_before"));
    }
    if (in.policy == NPolicy::Biased)
        in.biasedFgWays =
            static_cast<unsigned>(entry.field("biased_fg_ways"));
    if (in.policy == NPolicy::Dynamic)
        in.dynMaxFgWays =
            static_cast<unsigned>(entry.field("dyn_max_fg_ways"));
    return in;
}

NPartitionDecision
npartitionDecisionFromEntry(const obs::JournalEntry &entry)
{
    NPartitionDecision out;
    const std::size_t n =
        static_cast<std::size_t>(entry.field("num_apps"));
    out.masks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.masks.push_back(WayMask(static_cast<std::uint32_t>(
            entry.field(appField(i, "mask")))));
    if (entry.rule == "lfoc") {
        out.classes.resize(n);
        out.targets.resize(n);
        out.errAfter.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            out.classes[i] = static_cast<AppClass>(static_cast<int>(
                entry.field(appField(i, "class"))));
            out.targets[i] = entry.field(appField(i, "target"));
            out.errAfter[i] = entry.field(appField(i, "err_after"));
        }
    }
    return out;
}

void
journalNPartitionDecision(double t_us, const NPartitionInputs &in,
                          const NPartitionDecision &out,
                          std::uint64_t seq, bool applied)
{
    if (!obs::enabled())
        return;
    obs::timeseries().journal(
        makeNPartitionEntry(t_us, in, out, seq, applied));
    static obs::Counter &journaled =
        obs::metrics().counter("partitioner.napp_decisions_journaled");
    journaled.inc();
}

} // namespace capart
