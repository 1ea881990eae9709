/**
 * @file
 * Tests for N-app policy observability — the PR 5 attribution triad
 * generalized to N owners and the five NPolicy allocators:
 *
 *  1. Replay: every `npartition_decision` journal entry carries the
 *     complete inputs of the Partitioner::decide it journaled
 *     (observations, miss curves, LFOC bounce accumulators, policy
 *     configuration), so `decideNPartition(inputsFromRecord) ==
 *     recordedMasks` holds for all five policies — including after a
 *     JSON round trip through an attribution side file.
 *  2. Conservation at N: the AttributionSampler's per-owner buckets
 *     still partition the machine totals when N apps own the LLC —
 *     occupancy never exceeds the allocated way count, the five stall
 *     buckets partition cycles exactly, attributed energy reaches the
 *     model totals within 1e-9 relative.
 *  3. Zero cost: arming sampling + journaling on an NAppStudy changes
 *     no result bit (the journal only *reads* the LFOC bounce state
 *     through accessors; a second decide() would perturb it).
 *
 * The end-to-end test drives a five-policy N-app spec through a
 * SweepRunner twice and checks every promised artifact: a ledger
 * holding only the point record, its side file with `run`
 * segmentation markers and journaled decisions for every policy,
 * replay from that side file, and a byte-deterministic dashboard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/lfoc.hh"
#include "core/napp.hh"
#include "core/npartition_journal.hh"
#include "core/partitioner.hh"
#include "core/ucp.hh"
#include "dashboard/dashboard.hh"
#include "exec/sweep_runner.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"
#include "obs/timeseries.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"

namespace capart
{
namespace
{

namespace fs = std::filesystem;

/** Arms attribution recording for one test (see test_attribution.cc). */
struct SamplingGuard
{
    explicit SamplingGuard(std::uint64_t period)
    {
        obs::setEnabled(true);
        obs::timeseries().clear();
        obs::timeseries().setPeriod(period);
    }

    ~SamplingGuard()
    {
        obs::timeseries().setPeriod(0);
        obs::timeseries().clear();
        obs::setEnabled(false);
    }
};

/** |a - b| within 1e-9 relative (FP accumulation-order slack). */
void
expectNearRelative(double a, double b)
{
    const double tol = 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
    EXPECT_NEAR(a, b, tol);
}

/** Synthetic observations with convex, app-distinct miss curves. */
std::vector<AppObservation>
syntheticObservations(std::size_t n, unsigned total_ways)
{
    std::vector<AppObservation> apps(n);
    for (std::size_t i = 0; i < n; ++i) {
        AppObservation &a = apps[i];
        a.id = static_cast<AppId>(i);
        a.latencySensitive = i == 0;
        // App 0 is light (low curve floor); the rest are heavy with a
        // steep-enough curve to classify as LFOC-sensitive, each with
        // a distinct decay so UCP's lookahead has real choices and the
        // LFOC surplus shares come out fractional (which is what makes
        // the bounce accumulators carry state between windows).
        a.mpki = i == 0 ? 2.0 : 20.0 + 15.0 * static_cast<double>(i);
        a.apki = 20.0 + static_cast<double>(i);
        a.ipc = 1.0 / (1.0 + static_cast<double>(i));
        a.missCurve.resize(total_ways + 1);
        const double decay =
            i == 0 ? 0.5 : 0.04 + 0.02 * static_cast<double>(i);
        for (unsigned w = 0; w <= total_ways; ++w)
            a.missCurve[w] =
                a.mpki / (1.0 + decay * static_cast<double>(w));
    }
    return apps;
}

/** Replay @p entry through the attribution side-file encoding and
 *  back, as a replay tool reads it; verify the recorded masks (and
 *  LFOC introspection) reproduce exactly. */
void
expectEntryReplays(const obs::JournalEntry &entry)
{
    obs::AttributionBatch batch;
    batch.journal = {entry};
    std::ostringstream text;
    obs::writeAttributionJson(text, batch);
    obs::AttributionBatch back;
    ASSERT_TRUE(obs::parseAttributionJson(text.str(), &back));
    ASSERT_EQ(back.journal.size(), 1u);
    const obs::JournalEntry &round = back.journal[0];
    EXPECT_EQ(round.kind, "npartition_decision");

    const NPartitionInputs in = npartitionInputsFromEntry(round);
    const NPartitionDecision want = npartitionDecisionFromEntry(round);
    const NPartitionDecision got = decideNPartition(in);
    ASSERT_EQ(got.masks.size(), want.masks.size()) << entry.rule;
    for (std::size_t i = 0; i < got.masks.size(); ++i)
        EXPECT_EQ(got.masks[i].bits(), want.masks[i].bits())
            << entry.rule << " app " << i;
    ASSERT_EQ(got.classes.size(), want.classes.size());
    for (std::size_t i = 0; i < got.classes.size(); ++i)
        EXPECT_EQ(static_cast<int>(got.classes[i]),
                  static_cast<int>(want.classes[i]));
    ASSERT_EQ(got.errAfter.size(), want.errAfter.size());
    for (std::size_t i = 0; i < got.errAfter.size(); ++i)
        EXPECT_DOUBLE_EQ(got.errAfter[i], want.errAfter[i]);
}

// ------------------------------------------------------- replay -------

TEST(NPartitionReplay, AllFivePoliciesRoundTripThroughLedger)
{
    const unsigned ways = 20;
    const std::vector<AppObservation> apps = syntheticObservations(4, ways);

    for (const NPolicy policy :
         {NPolicy::Shared, NPolicy::Fair, NPolicy::Biased, NPolicy::Dynamic,
          NPolicy::Ucp, NPolicy::Lfoc}) {
        NPartitionInputs in;
        in.policy = policy;
        in.totalWays = ways;
        in.apps = apps;
        in.biasedFgWays = 11;
        in.dynMaxFgWays = ways - 1;
        const NPartitionDecision out = decideNPartition(in);
        ASSERT_EQ(out.masks.size(), apps.size()) << npolicyName(policy);
        const obs::JournalEntry e =
            makeNPartitionEntry(123.0, in, out, 0, true);
        EXPECT_EQ(e.kind, "npartition_decision");
        EXPECT_EQ(e.rule, npolicyName(policy));
        expectEntryReplays(e);
    }
}

TEST(NPartitionReplay, LfocBounceStateRoundTrips)
{
    // Drive one stateful LFOC partitioner across several windows with
    // drifting observations so the fractional-way error accumulators
    // take irrational-looking values, journaling each decision with
    // the *pre-decide* bounce state. Every record must replay.
    const unsigned ways = 20;
    LfocPartitioner lfoc;
    std::vector<obs::JournalEntry> journal;
    for (unsigned step = 0; step < 6; ++step) {
        std::vector<AppObservation> apps = syntheticObservations(5, ways);
        for (std::size_t i = 0; i < apps.size(); ++i)
            apps[i].mpki += 0.37 * static_cast<double>(step * (i + 1));

        NPartitionInputs in;
        in.policy = NPolicy::Lfoc;
        in.totalWays = ways;
        in.apps = apps;
        in.lfocErrBefore = lfoc.bounceError();
        const std::vector<WayMask> masks = lfoc.decide(apps, ways);
        NPartitionDecision out;
        out.masks = masks;
        out.classes = lfoc.lastClasses();
        out.targets = lfoc.lastTargets();
        out.errAfter = lfoc.bounceError();
        journal.push_back(
            makeNPartitionEntry(1000.0 * step, in, out, step, true));
    }
    ASSERT_EQ(journal.size(), 6u);
    bool bounced = false;
    for (const obs::JournalEntry &e : journal) {
        expectEntryReplays(e);
        for (const auto &[name, value] : e.fields) {
            if (name.find("err_before") != std::string::npos &&
                value != 0.0)
                bounced = true;
        }
    }
    EXPECT_TRUE(bounced)
        << "the drifting mix must exercise nonzero bounce state, or "
           "this test proves nothing about carrying it";
}

// -------------------------------------------------- conservation ------

TEST(NAppAttribution, ConservationHoldsAcrossNOwners)
{
    SamplingGuard armed(32);

    // Four apps on the N-app server machine under a static fair split:
    // disjoint masks make the occupancy-vs-allocation bound exact.
    SystemConfig scfg = nAppSystem(8, 12, 12345);
    System sys(scfg);
    const char *names[] = {"429.mcf", "ferret", "fop", "470.lbm"};
    for (unsigned i = 0; i < 4; ++i)
        sys.addAppOnCores(Catalog::byName(names[i]).scaled(0.01), i * 2, 2,
                          i != 0);
    const std::vector<WayMask> masks = fairMasks(4, sys.llcWays());
    for (AppId id = 0; id < 4; ++id)
        sys.setWayMask(id, masks[id]);
    sys.run();

    const obs::AttributionBatch batch = obs::timeseries().drainScope();
    ASSERT_GE(batch.samples.size(), 2u);

    for (const obs::AttributionSample &s : batch.samples) {
        ASSERT_EQ(s.owners.size(), 4u);
        ASSERT_GT(s.llcSets, 0u);
        std::uint64_t owner_lines = 0;
        double busy_llc_j = 0.0;
        double dram_j = 0.0;
        for (const obs::OwnerSample &o : s.owners) {
            owner_lines += o.residentLines;

            // An app's lines live only in its allocated ways, so its
            // occupancy (lines / sets) is bounded by the way count.
            EXPECT_EQ(o.wayMaskBits, masks[o.owner].bits());
            EXPECT_LE(o.residentLines,
                      static_cast<std::uint64_t>(s.llcSets) *
                          masks[o.owner].count())
                << "owner " << o.owner
                << " occupies ways outside its mask";

            EXPECT_EQ(o.stallCompute + o.stallL2 + o.stallLlc +
                          o.stallDram + o.stallQueue,
                      o.cycles)
                << "stall buckets must partition owner " << o.owner
                << "'s cycles";

            busy_llc_j += o.busyJ + o.llcJ;
            dram_j += o.dramJ;
        }
        EXPECT_EQ(owner_lines, s.llcResidentLines);
        expectNearRelative(busy_llc_j, s.socketDynamicJ);
        expectNearRelative(dram_j, s.dramJ);
    }
}

// ---------------------------------------------------- zero cost -------

TEST(NAppZeroCost, StudyResultsBitIdenticalWithObsOn)
{
    // The observer-effect guard for the bounce accumulators: the
    // journal reads LFOC state through accessors and never re-runs
    // decide(), so an armed run must match an unarmed run bit for bit
    // on every policy outcome — including the stateful ones.
    const exec::ExperimentSpec spec = exec::nappSpec(
        {"429.mcf", "ferret", "fop"}, 4, 8,
        npolicyBit(NPolicy::Shared) | npolicyBit(NPolicy::Ucp) |
            npolicyBit(NPolicy::Lfoc) | npolicyBit(NPolicy::Dynamic),
        2, 0.01);

    ASSERT_FALSE(obs::enabled());
    const exec::SweepResult off = exec::runSpec(spec, 12345);

    exec::SweepResult on;
    {
        SamplingGuard armed(8);
        on = exec::runSpec(spec, 12345);
        obs::metrics().reset();
    }

    for (unsigned p = 0; p < kNumNPolicies; ++p) {
        ASSERT_EQ(off.napp[p].present, on.napp[p].present);
        if (!off.napp[p].present)
            continue;
        EXPECT_EQ(off.napp[p].stp, on.napp[p].stp);
        EXPECT_EQ(off.napp[p].throughputIps, on.napp[p].throughputIps);
        EXPECT_EQ(off.napp[p].unfairness, on.napp[p].unfairness);
        EXPECT_EQ(off.napp[p].fgSlowdown, on.napp[p].fgSlowdown);
        EXPECT_EQ(off.napp[p].socketEnergyJ, on.napp[p].socketEnergyJ);
        EXPECT_EQ(off.napp[p].wallEnergyJ, on.napp[p].wallEnergyJ);
        EXPECT_EQ(off.napp[p].sloBreaches, on.napp[p].sloBreaches);
        EXPECT_EQ(off.napp[p].remasks, on.napp[p].remasks);
    }
}

// ------------------------------------- end to end (SweepRunner) -------

constexpr unsigned kAllFive =
    npolicyBit(NPolicy::Shared) | npolicyBit(NPolicy::Fair) |
    npolicyBit(NPolicy::Ucp) | npolicyBit(NPolicy::Lfoc) |
    npolicyBit(NPolicy::Dynamic);

/** Run the small five-policy N-app spec under a fresh SweepRunner
 *  writing into @p dir; returns the rendered dashboard HTML. */
std::string
runNAppPoint(const fs::path &dir, const exec::ExperimentSpec &spec,
             std::vector<obs::RunRecord> *records_out)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    obs::timeseries().clear();

    obs::RunLedger ledger((dir / "runs.jsonl").string());
    EXPECT_TRUE(ledger.ok());

    exec::SweepRunnerOptions ro;
    ro.jobs = 1;
    ro.baseSeed = 12345;
    ro.ledger = &ledger;
    ro.benchName = "fig09n_napp_policies";
    ro.runId = "fig09n_napp_policies-12345-test";
    ro.attrDir = dir.string();
    exec::SweepRunner runner(ro);

    const std::vector<exec::SweepResult> results = runner.run({spec});
    EXPECT_EQ(results.size(), 1u);

    const obs::RunLedger::LoadResult loaded =
        obs::RunLedger::load(ledger.path());
    EXPECT_EQ(loaded.skipped, 0u);
    *records_out = loaded.records;

    // The dashboard renders from the ledger and the side files alone.
    dashboard::DashboardData data;
    EXPECT_TRUE(
        dashboard::loadDashboardData({ledger.path()}, "", "", "", &data));
    EXPECT_EQ(data.batches.size(), 1u);
    for (obs::RunRecord &rec : data.points) {
        // The wall-clock stamps and the attrDir path are the only
        // host-dependent bytes of a point; everything else (metrics,
        // spec hash, decisions) must reproduce bit for bit.
        rec.tsMs = 0.0;
        rec.wallMs = 0.0;
        rec.attrFile.clear();
    }
    for (obs::AttributionBatch &b : data.batches)
        b.attrFile.clear();

    std::ostringstream html;
    dashboard::renderDashboardHtml(html, data);
    obs::timeseries().clear();
    return html.str();
}

TEST(NAppEndToEnd, LedgersReplayableDecisionsAndDeterministicDashboard)
{
    SamplingGuard armed(8);

    const exec::ExperimentSpec spec = exec::nappSpec(
        {"429.mcf", "ferret", "fop"}, 4, 8, kAllFive, 2, 0.01);

    const fs::path base =
        fs::path(testing::TempDir()) / "capart_napp_e2e";
    std::vector<obs::RunRecord> records;
    const std::string html_a =
        runNAppPoint(base / "a", spec, &records);

    // ---- ledger contents: the point alone, linking its side file;
    // ---- no ledger copy of any decision.
    ASSERT_EQ(records.size(), 1u);
    const obs::RunRecord *point = &records[0];
    EXPECT_EQ(point->kind, "point");
    EXPECT_EQ(point->specHash, spec.hash());
    ASSERT_FALSE(point->attrFile.empty())
        << "the N-app point must link its attribution side file";

    // ---- the side file parses; every one of the five policies
    // ---- journaled at least one decision there, and each replays.
    std::ifstream in(point->attrFile);
    ASSERT_TRUE(in.good()) << point->attrFile;
    std::ostringstream text;
    text << in.rdbuf();
    obs::AttributionBatch batch;
    ASSERT_TRUE(obs::parseAttributionJson(text.str(), &batch));
    EXPECT_EQ(batch.specHash, spec.hash());
    EXPECT_GE(batch.samples.size(), 1u);
    unsigned by_rule[kNumNPolicies] = {};
    unsigned replayed = 0;
    for (const obs::JournalEntry &e : batch.journal) {
        if (e.kind != "npartition_decision")
            continue;
        const auto policy =
            static_cast<unsigned>(e.field("policy", -1.0));
        ASSERT_LT(policy, kNumNPolicies);
        EXPECT_EQ(e.rule, npolicyName(static_cast<NPolicy>(policy)));
        ++by_rule[policy];
        expectEntryReplays(e);
        ++replayed;
    }
    for (const NPolicy p : {NPolicy::Shared, NPolicy::Fair, NPolicy::Ucp,
                            NPolicy::Lfoc, NPolicy::Dynamic})
        EXPECT_GE(by_rule[static_cast<unsigned>(p)], 1u)
            << npolicyName(p) << " journaled no decision";
    EXPECT_GE(replayed, 5u);

    // ---- the side file carries the `run` segmentation markers,
    // ---- one per System run, policies in run order.
    std::vector<std::string> run_order;
    for (const obs::JournalEntry &e : batch.journal) {
        if (e.kind == "run")
            run_order.push_back(e.rule);
    }
    // 5 policy runs + 3 solo baselines, every policy present exactly
    // once and the first policy first (run order is study order).
    ASSERT_EQ(run_order.size(), 8u);
    EXPECT_EQ(run_order.front(), "shared");
    for (const char *rule : {"fair", "ucp", "lfoc", "dynamic"})
        EXPECT_EQ(std::count(run_order.begin(), run_order.end(),
                             std::string(rule)),
                  1);
    EXPECT_EQ(std::count(run_order.begin(), run_order.end(),
                         std::string("solo")),
              3);

    // ---- byte determinism: a second same-seed run renders the same
    // ---- dashboard, and the same data renders identically twice.
    std::vector<obs::RunRecord> records_b;
    const std::string html_b =
        runNAppPoint(base / "b", spec, &records_b);
    EXPECT_EQ(html_a, html_b)
        << "the N-app dashboard must be byte-deterministic across "
           "same-seed runs";
    EXPECT_NE(html_a.find("data-samples=\""), std::string::npos);
    EXPECT_EQ(html_a.find("data-samples=\"0\""), std::string::npos);
    EXPECT_NE(html_a.find("npartition_decision"), std::string::npos);

    obs::metrics().reset();
    fs::remove_all(base);
}

} // namespace
} // namespace capart
