/**
 * @file
 * Tests for per-owner attribution, the decision journal, and the
 * dashboard — the three contracts of the attribution pipeline:
 *
 *  1. Conservation: what the sampler reports sums to what the models
 *     charged. Per-owner LLC lines sum to the resident total, the five
 *     stall buckets partition cycles exactly, attributed energy equals
 *     the model totals within floating-point accumulation slack
 *     (1e-9 relative), and per-channel DRAM bytes conserve.
 *  2. Replay: a journaled decision record contains everything
 *     decidePartition() read, so re-running the pure function on the
 *     recorded inputs reproduces the recorded outputs — including
 *     after a JSON round trip through an attribution side file.
 *  3. Zero cost: arming the sampler changes no experiment output bit,
 *     and with sampling unarmed nothing is recorded at all.
 *
 * The end-to-end test runs the fig13 workload (a Consolidation spec
 * under the Dynamic policy) through a SweepRunner with an attrDir and
 * a ledger, then checks every artifact the pipeline promises: the
 * side file and its replayable decision journal, the ledger's point
 * record linking it (and no ledger copy of the decisions), and the
 * dashboard rendered from those files.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/decision_journal.hh"
#include "core/dynamic_partitioner.hh"
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

/**
 * Arms attribution recording for one test: observability on, the
 * sampler's period set, and every scope cleared on entry and exit so
 * tests never see each other's data.
 */
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

/** The fg/bg consolidation pair every sim-level test here runs. */
void
addPair(System &sys)
{
    sys.addAppOnCores(Catalog::byName("ferret").scaled(0.02), 0, 2);
    sys.addAppOnCores(Catalog::byName("dedup").scaled(0.02), 2, 2);
}

/** A synthetic FG window with well-formed timestamps. */
PerfWindow
fgWindow(unsigned index, double mpki)
{
    PerfWindow w;
    w.start = static_cast<Seconds>(index);
    w.end = w.start + 1.0;
    w.insts = 1000000;
    w.llcAccesses = 2000;
    w.llcMisses = static_cast<std::uint64_t>(mpki * 1000);
    w.mpki = mpki;
    w.apki = 2.0;
    return w;
}

/** |a - b| within 1e-9 relative (FP accumulation-order slack). */
void
expectNearRelative(double a, double b)
{
    const double tol = 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
    EXPECT_NEAR(a, b, tol);
}

/** Rules decidePartition() itself can emit (the replayable subset). */
bool
replayable(DecisionRule r)
{
    switch (r) {
      case DecisionRule::Hold:
      case DecisionRule::PhaseStartMax:
      case DecisionRule::ProbeShrink:
      case DecisionRule::SettleBack:
      case DecisionRule::SettleFloor:
      case DecisionRule::Retry:
        return true;
      default:
        // RejectHold / FallbackHold / FallbackEnter / ResumeProbe are
        // synthesized outside the decision step; their records carry
        // inputs for context, not for replay.
        return false;
    }
}

/** Replay every replayable decision of @p journal; count them. */
unsigned
expectJournalReplays(const std::vector<obs::JournalEntry> &journal)
{
    unsigned replayed = 0;
    for (const obs::JournalEntry &e : journal) {
        if (e.kind != "decision")
            continue;
        DecisionRule rule;
        EXPECT_TRUE(decisionRuleFromName(e.rule, &rule)) << e.rule;
        if (!decisionRuleFromName(e.rule, &rule) || !replayable(rule))
            continue;
        const DecisionInputs in = decisionInputsFromEntry(e);
        const Decision want = decisionFromEntry(e);
        const Decision got = decidePartition(in);
        EXPECT_EQ(static_cast<int>(got.rule), static_cast<int>(want.rule))
            << "rule " << e.rule << " at t=" << e.tUs;
        EXPECT_EQ(got.targetFgWays, want.targetFgWays);
        EXPECT_EQ(got.probingAfter, want.probingAfter);
        EXPECT_DOUBLE_EQ(got.delta, want.delta);
        ++replayed;
    }
    return replayed;
}

/** A small hand-built batch for serialization and dashboard tests. */
obs::AttributionBatch
syntheticBatch()
{
    obs::AttributionBatch b;
    b.label = "fg+bg";
    b.specHash = 0xdeadbeefcafef00dULL;
    for (int i = 0; i < 2; ++i) {
        obs::AttributionSample s;
        s.tUs = 100.0 * (i + 1);
        s.quantum = 8u * (i + 1);
        s.llcResidentLines = 3000 + 100 * i;
        s.llcSets = 2048;
        s.llcWays = 12;
        s.socketDynamicJ = 0.5 * (i + 1);
        s.dramJ = 0.125 * (i + 1);
        for (unsigned o = 0; o < 2; ++o) {
            obs::OwnerSample os_;
            os_.owner = o;
            os_.residentLines = 1500 + 50 * i + o;
            os_.occupancyWays =
                static_cast<double>(os_.residentLines) / 2048.0;
            os_.wayMaskBits = o == 0 ? 0xff0 : 0x00f;
            os_.retired = 1000000u * (i + 1);
            os_.cycles = 2000000u * (i + 1);
            os_.stallCompute = 1200000u * (i + 1);
            os_.stallL2 = 300000u * (i + 1);
            os_.stallLlc = 250000u * (i + 1);
            os_.stallDram = 200000u * (i + 1);
            os_.stallQueue = 50000u * (i + 1);
            os_.busyJ = 0.125 * (i + 1);
            os_.llcJ = 0.0625 * (i + 1);
            os_.dramJ = 0.03125 * (i + 1);
            os_.channelBytes = {4096u * (i + 1), 4096u * (i + 1) + o};
            s.owners.push_back(os_);
        }
        b.samples.push_back(s);
    }
    obs::JournalEntry e;
    e.tUs = 150.0;
    e.kind = "decision";
    e.rule = "probe_shrink";
    e.fields = {{"fg_ways", 9.0}, {"target_fg_ways", 8.0},
                {"applied", 1.0}};
    b.journal.push_back(e);
    return b;
}

// -------------------------------------------------- conservation ------

TEST(AttributionConservation, SamplesConserveOccupancyStallsAndEnergy)
{
    SamplingGuard armed(32);

    SystemConfig scfg;
    System sys(scfg);
    addPair(sys);
    sys.run();

    const obs::AttributionBatch batch = obs::timeseries().drainScope();
    ASSERT_GE(batch.samples.size(), 2u)
        << "a run of thousands of quanta must yield samples at period 32";

    const std::uint64_t period = 32;
    for (std::size_t i = 0; i < batch.samples.size(); ++i) {
        const obs::AttributionSample &s = batch.samples[i];
        EXPECT_EQ(s.llcWays, sys.llcWays());
        ASSERT_GT(s.llcSets, 0u);
        if (i > 0) {
            EXPECT_EQ(s.quantum - batch.samples[i - 1].quantum, period)
                << "samples must land on the period grid";
            EXPECT_GE(s.tUs, batch.samples[i - 1].tUs);
        }

        // Occupancy: every resident line belongs to exactly one app
        // (the address-space stride guarantees it), so the per-owner
        // counts partition the total.
        std::uint64_t owner_lines = 0;
        std::uint64_t stall_cycles = 0;
        std::uint64_t cycle_total = 0;
        double busy_llc_j = 0.0;
        double dram_j = 0.0;
        ASSERT_EQ(s.owners.size(), sys.numApps());
        for (const obs::OwnerSample &o : s.owners) {
            owner_lines += o.residentLines;
            EXPECT_NEAR(o.occupancyWays,
                        static_cast<double>(o.residentLines) /
                            static_cast<double>(s.llcSets),
                        1e-12);
            EXPECT_NE(o.wayMaskBits, 0u) << "owner without a way mask";

            // The five buckets partition cycles *exactly* — each
            // quantum's split truncates prefix sums, losing nothing.
            stall_cycles += o.stallCompute + o.stallL2 + o.stallLlc +
                            o.stallDram + o.stallQueue;
            cycle_total += o.cycles;
            EXPECT_EQ(o.stallCompute + o.stallL2 + o.stallLlc +
                          o.stallDram + o.stallQueue,
                      o.cycles)
                << "stall buckets must partition owner " << o.owner
                << "'s cycles";

            busy_llc_j += o.busyJ + o.llcJ;
            dram_j += o.dramJ;
        }
        EXPECT_EQ(owner_lines, s.llcResidentLines)
            << "per-owner lines must sum to the resident total";
        EXPECT_EQ(stall_cycles, cycle_total);

        // Every charge site passes an owner, so the attributed buckets
        // reach the model totals up to FP accumulation order.
        expectNearRelative(busy_llc_j, s.socketDynamicJ);
        expectNearRelative(dram_j, s.dramJ);
    }
}

TEST(AttributionConservation, ModelTotalsMatchOwnerBuckets)
{
    SamplingGuard armed(64);

    SystemConfig scfg;
    System sys(scfg);
    addPair(sys);
    sys.run();
    obs::timeseries().drainScope(); // not under test here

    // Energy: owner buckets vs the model's running totals.
    const EnergyModel &em = sys.energy();
    ASSERT_GE(em.ownerCount(), 2u);
    double busy_llc = 0.0;
    double dram_owned = 0.0;
    for (unsigned o = 0; o < em.ownerCount(); ++o) {
        const OwnerEnergy oe = em.ownerEnergy(o);
        busy_llc += oe.busyJ + oe.llcJ;
        dram_owned += oe.dramJ;
    }
    EXPECT_GT(em.dynamicSocketEnergy(), 0.0);
    EXPECT_GT(em.dramTransferEnergy(), 0.0);
    expectNearRelative(busy_llc, em.dynamicSocketEnergy());
    expectNearRelative(dram_owned, em.dramTransferEnergy());

    // DRAM: per-flow per-channel bytes conserve exactly — their sums
    // equal the per-channel totals, which sum to all interface bytes
    // (recording was on for the whole run, so nothing escaped).
    DramModel &dram = sys.dram();
    std::uint64_t all_channels = 0;
    for (unsigned ch = 0; ch < dram.channels(); ++ch) {
        std::uint64_t per_flow = 0;
        for (unsigned f = 0; f < dram.channelFlows(); ++f)
            per_flow += dram.channelBytes(f, ch);
        EXPECT_EQ(per_flow, dram.channelBytesTotal(ch))
            << "flow split of channel " << ch << " must sum to its total";
        all_channels += per_flow;
    }
    EXPECT_EQ(all_channels, dram.totalBytes());
}

// ------------------------------------------------------- gating -------

TEST(AttributionGating, NoSamplesWithoutAPeriod)
{
    SamplingGuard armed(0); // obs on, sampler unarmed
    SystemConfig scfg;
    System sys(scfg);
    addPair(sys);
    sys.run();
    const obs::AttributionBatch batch = obs::timeseries().drainScope();
    EXPECT_TRUE(batch.samples.empty())
        << "period 0 must record nothing";
}

TEST(AttributionGating, NoSamplesWhileDisabled)
{
    ASSERT_FALSE(obs::enabled()) << "tests must start with obs off";
    obs::timeseries().clear();
    obs::timeseries().setPeriod(16); // armed but obs is off
    SystemConfig scfg;
    System sys(scfg);
    addPair(sys);
    sys.run();
    obs::timeseries().setPeriod(0);
    const obs::AttributionBatch batch = obs::timeseries().drainScope();
    EXPECT_TRUE(batch.samples.empty())
        << "a period without obs::enabled() must record nothing";
}

TEST(AttributionZeroCost, SamplingChangesNoResultBit)
{
    // The load-bearing invariant: arming the sampler on the most
    // instrumented path (fig13's dynamic consolidation) changes no
    // output bit. Recording never feeds back into simulation state.
    const exec::ExperimentSpec spec = exec::consolidationSpec(
        "429.mcf", "dedup", exec::policyBit(Policy::Dynamic), 0.03, 15e-6);

    ASSERT_FALSE(obs::enabled());
    const exec::SweepResult off = exec::runSpec(spec, 12345);

    exec::SweepResult on;
    {
        SamplingGuard armed(8);
        on = exec::runSpec(spec, 12345);
        obs::metrics().reset();
    }

    EXPECT_EQ(off.time, on.time);
    EXPECT_EQ(off.socketEnergy, on.socketEnergy);
    EXPECT_EQ(off.wallEnergy, on.wallEnergy);
    EXPECT_EQ(off.mpki, on.mpki);
    EXPECT_EQ(off.ipc, on.ipc);
    EXPECT_EQ(off.bgThroughput, on.bgThroughput);
    for (int p = 0; p < 4; ++p) {
        EXPECT_EQ(off.policy[p].present, on.policy[p].present);
        EXPECT_EQ(off.policy[p].fgSlowdown, on.policy[p].fgSlowdown);
        EXPECT_EQ(off.policy[p].bgThroughput, on.policy[p].bgThroughput);
        EXPECT_EQ(off.policy[p].energyVsSequential,
                  on.policy[p].energyVsSequential);
        EXPECT_EQ(off.policy[p].weightedSpeedup,
                  on.policy[p].weightedSpeedup);
        EXPECT_EQ(off.policy[p].fgWays, on.policy[p].fgWays);
    }
}

// ---------------------------------------------- decision journal ------

TEST(DecisionJournal, RuleNamesRoundTrip)
{
    const DecisionRule all[] = {
        DecisionRule::Hold,          DecisionRule::PhaseStartMax,
        DecisionRule::ProbeShrink,   DecisionRule::SettleBack,
        DecisionRule::SettleFloor,   DecisionRule::Retry,
        DecisionRule::RejectHold,    DecisionRule::FallbackHold,
        DecisionRule::FallbackEnter, DecisionRule::ResumeProbe,
    };
    for (const DecisionRule r : all) {
        DecisionRule back;
        ASSERT_TRUE(decisionRuleFromName(decisionRuleName(r), &back));
        EXPECT_EQ(static_cast<int>(back), static_cast<int>(r));
    }
    DecisionRule out;
    EXPECT_FALSE(decisionRuleFromName("no_such_rule", &out));
}

TEST(DecisionJournal, EntryRoundTripsInputsAndOutputs)
{
    DecisionInputs in;
    in.rawMpki = 42.5;
    in.smoothedMpki = 40.25;
    in.lastMpki = 39.0;
    in.haveLast = true;
    in.phase = PhaseEvent::Stable;
    in.probing = true;
    in.retryPending = false;
    in.retryWays = 0;
    in.fgWays = 9;
    in.thr3 = 0.05;
    in.maxFgWays = 11; // the background always keeps at least one way

    const Decision out = decidePartition(in);
    const obs::JournalEntry e =
        makeDecisionEntry(1234.5, in, out, 12, true, 9);
    EXPECT_EQ(e.kind, "decision");
    EXPECT_EQ(e.rule, decisionRuleName(out.rule));

    const DecisionInputs in2 = decisionInputsFromEntry(e);
    const Decision replayed = decidePartition(in2);
    const Decision recorded = decisionFromEntry(e);
    EXPECT_EQ(static_cast<int>(replayed.rule),
              static_cast<int>(recorded.rule));
    EXPECT_EQ(replayed.targetFgWays, recorded.targetFgWays);
    EXPECT_EQ(replayed.probingAfter, recorded.probingAfter);
    EXPECT_DOUBLE_EQ(replayed.delta, recorded.delta);

    // The record carries the installed state and candidate masks too.
    EXPECT_DOUBLE_EQ(e.field("applied"), 1.0);
    EXPECT_DOUBLE_EQ(e.field("installed_fg_ways"), 9.0);
    EXPECT_DOUBLE_EQ(e.field("total_ways"), 12.0);
    EXPECT_NE(e.field("chosen_fg_mask"), 0.0);
    EXPECT_NE(e.field("chosen_bg_mask"), 0.0);
}

TEST(DecisionJournal, PartitionerDecisionsReplayFromTheJournal)
{
    SamplingGuard armed(0); // journal only; no sampling needed

    // Stable level, then a sustained jump: holds, a phase start, and a
    // probe sequence, all journaled.
    SystemConfig scfg;
    System sys(scfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);
    DynamicPartitioner ctrl(fg, {bg});

    unsigned t = 0;
    for (int i = 0; i < 8; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    for (int i = 0; i < 8; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 100.0));

    const obs::AttributionBatch batch = obs::timeseries().drainScope();
    ASSERT_GE(batch.journal.size(), 8u)
        << "every window must journal one decision";

    bool saw_phase_start = false;
    for (const obs::JournalEntry &e : batch.journal)
        saw_phase_start |= e.rule == "phase_start_max";
    EXPECT_TRUE(saw_phase_start)
        << "the MPKI jump must journal a phase start";

    const unsigned replayed = expectJournalReplays(batch.journal);
    EXPECT_GE(replayed, 8u);
    obs::metrics().reset();
}

// --------------------------------------------------- serialization ----

TEST(AttributionJson, DocumentRoundTrips)
{
    obs::AttributionBatch b = syntheticBatch();
    b.attrFile = "attr/some-file.json";
    std::ostringstream os;
    obs::writeAttributionJson(os, b);

    obs::AttributionBatch back;
    ASSERT_TRUE(obs::parseAttributionJson(os.str(), &back));
    EXPECT_EQ(back.label, b.label);
    EXPECT_EQ(back.specHash, b.specHash);
    EXPECT_EQ(back.attrFile, b.attrFile);
    ASSERT_EQ(back.samples.size(), b.samples.size());
    ASSERT_EQ(back.journal.size(), b.journal.size());

    for (std::size_t i = 0; i < b.samples.size(); ++i) {
        const obs::AttributionSample &want = b.samples[i];
        const obs::AttributionSample &got = back.samples[i];
        EXPECT_DOUBLE_EQ(got.tUs, want.tUs);
        EXPECT_EQ(got.quantum, want.quantum);
        EXPECT_EQ(got.llcResidentLines, want.llcResidentLines);
        EXPECT_EQ(got.llcSets, want.llcSets);
        EXPECT_EQ(got.llcWays, want.llcWays);
        EXPECT_DOUBLE_EQ(got.socketDynamicJ, want.socketDynamicJ);
        EXPECT_DOUBLE_EQ(got.dramJ, want.dramJ);
        ASSERT_EQ(got.owners.size(), want.owners.size());
        for (std::size_t o = 0; o < want.owners.size(); ++o) {
            const obs::OwnerSample &wo = want.owners[o];
            const obs::OwnerSample &go = got.owners[o];
            EXPECT_EQ(go.owner, wo.owner);
            EXPECT_EQ(go.residentLines, wo.residentLines);
            EXPECT_DOUBLE_EQ(go.occupancyWays, wo.occupancyWays);
            EXPECT_EQ(go.wayMaskBits, wo.wayMaskBits);
            EXPECT_EQ(go.retired, wo.retired);
            EXPECT_EQ(go.cycles, wo.cycles);
            EXPECT_EQ(go.stallCompute, wo.stallCompute);
            EXPECT_EQ(go.stallL2, wo.stallL2);
            EXPECT_EQ(go.stallLlc, wo.stallLlc);
            EXPECT_EQ(go.stallDram, wo.stallDram);
            EXPECT_EQ(go.stallQueue, wo.stallQueue);
            EXPECT_DOUBLE_EQ(go.busyJ, wo.busyJ);
            EXPECT_DOUBLE_EQ(go.llcJ, wo.llcJ);
            EXPECT_DOUBLE_EQ(go.dramJ, wo.dramJ);
            EXPECT_EQ(go.channelBytes, wo.channelBytes);
        }
    }
    const obs::JournalEntry &we = b.journal[0];
    const obs::JournalEntry &ge = back.journal[0];
    EXPECT_DOUBLE_EQ(ge.tUs, we.tUs);
    EXPECT_EQ(ge.kind, we.kind);
    EXPECT_EQ(ge.rule, we.rule);
    EXPECT_EQ(ge.fields, we.fields);
}

TEST(AttributionJson, RejectsForeignDocuments)
{
    obs::AttributionBatch out;
    EXPECT_FALSE(obs::parseAttributionJson("not json", &out));
    EXPECT_FALSE(obs::parseAttributionJson("{\"other\":1}", &out));
}

// ----------------------------------- fig13 end to end (SweepRunner) ----

TEST(AttributionEndToEnd, SweepRunnerWritesSideFilesAndDecisions)
{
    SamplingGuard armed(8);

    const fs::path dir =
        fs::path(testing::TempDir()) / "capart_attr_e2e";
    fs::remove_all(dir);
    fs::create_directories(dir);

    obs::RunLedger ledger((dir / "runs.jsonl").string());
    ASSERT_TRUE(ledger.ok());

    exec::SweepRunnerOptions ro;
    ro.jobs = 1;
    ro.baseSeed = 12345;
    ro.ledger = &ledger;
    ro.benchName = "fig13_dynamic";
    ro.runId = "fig13_dynamic-12345-test";
    ro.attrDir = dir.string();
    exec::SweepRunner runner(ro);

    const exec::ExperimentSpec spec = exec::consolidationSpec(
        "429.mcf", "dedup", exec::policyBit(Policy::Dynamic), 0.03, 15e-6);
    const std::vector<exec::SweepResult> results = runner.run({spec});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(
        results[0].policy[static_cast<int>(Policy::Dynamic)].present);

    // The ledger holds the point, stamped with the run id and linking
    // its side file, and no copy of the partitioner's decisions: the
    // side file is their only record.
    const obs::RunLedger::LoadResult loaded =
        obs::RunLedger::load(ledger.path());
    EXPECT_EQ(loaded.skipped, 0u);
    ASSERT_EQ(loaded.records.size(), 1u);
    const obs::RunRecord *point = &loaded.records[0];
    EXPECT_EQ(point->kind, "point");
    EXPECT_EQ(point->run, ro.runId);
    EXPECT_EQ(point->bench, ro.benchName);
    EXPECT_EQ(point->specHash, spec.hash());
    ASSERT_FALSE(point->attrFile.empty())
        << "the point record must link its attribution side file";

    // The side file exists, parses, and every decision it journals
    // replays.
    std::ifstream in(point->attrFile);
    ASSERT_TRUE(in.good()) << point->attrFile;
    std::ostringstream text;
    text << in.rdbuf();
    obs::AttributionBatch batch;
    ASSERT_TRUE(obs::parseAttributionJson(text.str(), &batch));
    EXPECT_EQ(batch.specHash, spec.hash());
    EXPECT_EQ(batch.attrFile, point->attrFile);
    EXPECT_GE(batch.samples.size(), 1u)
        << "sampling at period 8 must capture the run";
    unsigned decisions = 0;
    for (const obs::JournalEntry &e : batch.journal) {
        if (e.kind == "decision") {
            ++decisions;
            EXPECT_FALSE(e.rule.empty());
        }
    }
    EXPECT_GE(decisions, 1u)
        << "a dynamic run must journal at least one decision";
    EXPECT_GE(expectJournalReplays(batch.journal), 1u);

    // The dashboard renders from the ledger and the side file alone.
    dashboard::DashboardData data;
    ASSERT_TRUE(
        dashboard::loadDashboardData({ledger.path()}, "", "", "", &data));
    ASSERT_EQ(data.points.size(), 1u);
    ASSERT_EQ(data.batches.size(), 1u);
    EXPECT_EQ(data.batches[0].attrFile, point->attrFile);
    std::ostringstream html;
    dashboard::renderDashboardHtml(html, data);
    EXPECT_NE(html.str().find("data-samples=\""), std::string::npos);
    EXPECT_EQ(
        html.str().find("data-samples=\"0\""), std::string::npos)
        << "an armed run must not render an empty dashboard";

    obs::metrics().reset();
    fs::remove_all(dir);
}

TEST(AttributionEndToEnd, StudyPointMarksEveryRunInRunOrder)
{
    // A fig13 point performs 19 System runs: shared (continuous), the
    // FG's half-machine solo, shared (run once), the FG's and the BG's
    // whole-machine solos, the 11 biased-search splits, biased (run
    // once; the continuous run reuses the search winner), and dynamic
    // (continuous, run once). Each restarts simulated time and the
    // quantum counter, so each must open with one `run` record, and
    // the point's samples must split into one segment per run.
    SamplingGuard armed(8);
    const fs::path dir =
        fs::path(testing::TempDir()) / "capart_attr_runs";
    fs::remove_all(dir);
    fs::create_directories(dir);
    exec::SweepRunnerOptions ro;
    ro.benchName = "fig13_dynamic";
    ro.attrDir = dir.string();
    const exec::ExperimentSpec spec = exec::consolidationSpec(
        "ferret", "dedup",
        exec::policyBit(Policy::Shared) | exec::policyBit(Policy::Biased) |
            exec::policyBit(Policy::Dynamic),
        0.02, 15e-6);
    exec::SweepRunner(ro).run({spec});

    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        files.push_back(entry.path());
    ASSERT_EQ(files.size(), 1u);
    std::ifstream in(files[0]);
    std::ostringstream text;
    text << in.rdbuf();
    obs::AttributionBatch batch;
    ASSERT_TRUE(obs::parseAttributionJson(text.str(), &batch));

    // (rule, app or FG ways, continuous background) of each run.
    struct Run
    {
        std::string rule;
        double detail;
        double continuous;
    };
    std::vector<Run> want = {{"shared", 12, 1},
                             {"solo", 0, -1},
                             {"shared", 12, 0},
                             {"solo", 0, -1},
                             {"solo", 1, -1}};
    for (unsigned ways = 1; ways <= 11; ++ways)
        want.push_back({"biased", static_cast<double>(ways), 1});
    want.push_back({"biased", -1, 0});
    want.push_back({"dynamic", -1, 1});
    want.push_back({"dynamic", -1, 0});

    std::vector<const obs::JournalEntry *> runs;
    for (const obs::JournalEntry &e : batch.journal) {
        if (e.kind == "run")
            runs.push_back(&e);
    }
    ASSERT_EQ(runs.size(), 19u);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const obs::JournalEntry &e = *runs[i];
        EXPECT_EQ(e.rule, want[i].rule) << "run " << i;
        EXPECT_EQ(e.field("num_apps"), 2.0) << "run " << i;
        EXPECT_EQ(e.field("total_ways"), 12.0) << "run " << i;
        if (want[i].rule == "solo") {
            EXPECT_EQ(e.field("app", -1), want[i].detail) << "run " << i;
            EXPECT_EQ(e.field("threads"), i == 1 ? 4.0 : 8.0)
                << "run " << i;
            continue;
        }
        EXPECT_EQ(e.field("bg_continuous", -1), want[i].continuous)
            << "run " << i;
        if (want[i].detail >= 0) {
            EXPECT_EQ(e.field("fg_ways"), want[i].detail) << "run " << i;
        }
        EXPECT_EQ(e.field("search"), i >= 5 && i <= 15 ? 1.0 : 0.0)
            << "run " << i;
    }

    std::size_t segments = 0;
    for (std::size_t i = 0; i < batch.samples.size(); ++i) {
        if (i == 0 ||
            batch.samples[i].quantum <= batch.samples[i - 1].quantum)
            ++segments;
    }
    EXPECT_EQ(segments, runs.size())
        << "every run must open one segment of the point's samples";
    obs::metrics().reset();
    fs::remove_all(dir);
}

// ---------------------------------------------------- dashboard -------

/** The parsed embedded JSON blob of a rendered dashboard page. */
Json
embeddedBlob(const std::string &html)
{
    const std::string open = "id=\"capart-data\">";
    const std::size_t start = html.find(open);
    EXPECT_NE(start, std::string::npos) << "data blob missing";
    const std::size_t begin = start + open.size();
    const std::size_t end = html.find("</script>", begin);
    EXPECT_NE(end, std::string::npos);
    std::string blob = html.substr(begin, end - begin);
    // Reverse the "</" -> "<\/" script-safety escaping (a legal JSON
    // escape, so honest parsers accept either form).
    std::string::size_type pos = 0;
    while ((pos = blob.find("<\\/", pos)) != std::string::npos)
        blob.replace(pos, 3, "</");
    const std::optional<Json> doc = Json::parse(blob);
    EXPECT_TRUE(doc.has_value()) << "blob is not valid JSON";
    return doc.value_or(Json{});
}

TEST(Dashboard, EmbedsDataBlobAndSampleCount)
{
    dashboard::DashboardData data;
    data.title = "capart test dashboard";
    data.batches = {syntheticBatch()};

    obs::RunRecord p;
    p.kind = "point";
    p.bench = "fig13_dynamic";
    p.run = "fig13_dynamic-12345-test";
    p.specHash = 0x1234;
    p.metrics = {{"fg_slowdown", 1.02}, {"bg_throughput", 3.5e9}};
    data.points = {p};

    EXPECT_EQ(dashboard::sampleTotal(data), 2u);

    std::ostringstream os;
    dashboard::renderDashboardHtml(os, data);
    const std::string html = os.str();

    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("data-samples=\"2\""), std::string::npos)
        << "the sample count is the machine-readable handle CI greps";
    EXPECT_NE(html.find("capart test dashboard"), std::string::npos);
    EXPECT_EQ(html.find("src="), std::string::npos)
        << "the page must not reference external resources";
    EXPECT_EQ(html.find("href="), std::string::npos)
        << "the page must not reference external resources";

    const Json doc = embeddedBlob(html);
    EXPECT_EQ(doc.at("title").asStr(), data.title);
    ASSERT_TRUE(doc.at("batches").isArr());
    ASSERT_EQ(doc.at("batches").arr.size(), 1u);
    const Json &batch = doc.at("batches").arr[0];
    EXPECT_EQ(batch.at("label").asStr(), "fg+bg");
    ASSERT_EQ(batch.at("samples").arr.size(), 2u);
    ASSERT_EQ(batch.at("journal").arr.size(), 1u);
    ASSERT_TRUE(doc.at("points").isArr());
    ASSERT_EQ(doc.at("points").arr.size(), 1u);
    EXPECT_EQ(doc.at("points").arr[0].at("bench").asStr(),
              "fig13_dynamic");
}

TEST(Dashboard, RendersDeterministically)
{
    dashboard::DashboardData data;
    data.title = "determinism";
    data.batches = {syntheticBatch()};
    std::ostringstream a, b;
    dashboard::renderDashboardHtml(a, data);
    dashboard::renderDashboardHtml(b, data);
    EXPECT_EQ(a.str(), b.str()) << "the renderer must be golden-diffable";
}

TEST(Dashboard, EscapesScriptClosersInEmbeddedData)
{
    dashboard::DashboardData data;
    data.title = "esc";
    obs::AttributionBatch b = syntheticBatch();
    b.label = "evil</script><b>x";
    data.batches = {std::move(b)};

    std::ostringstream os;
    dashboard::renderDashboardHtml(os, data);
    const std::string html = os.str();
    EXPECT_EQ(html.find("evil</script>"), std::string::npos)
        << "a label must never terminate the data block early";
    // The escaped form round-trips back to the original label.
    const Json doc = embeddedBlob(html);
    EXPECT_EQ(doc.at("batches").arr[0].at("label").asStr(),
              "evil</script><b>x");
}

TEST(Dashboard, EmptyDataRendersZeroSamples)
{
    dashboard::DashboardData data;
    data.title = "empty";
    std::ostringstream os;
    dashboard::renderDashboardHtml(os, data);
    EXPECT_NE(os.str().find("data-samples=\"0\""), std::string::npos)
        << "a page with no side files reports zero samples";
}

TEST(Dashboard, LedgerPlusObsDirRendersTheFleetSection)
{
    // bench_dashboard --ledger=F --obs-dir=D: the run's points come
    // from the ledger, and a side file in D/attr/ that no point links
    // (a bench driving System directly) comes from D. Side files
    // anywhere else under D are not read.
    const fs::path dir =
        fs::path(testing::TempDir()) / "capart_dash_obs_dir";
    fs::remove_all(dir);
    fs::create_directories(dir / "attr");
    fs::create_directories(dir / "stale" / "attr");
    const std::string ledger_path = (dir / "runs.jsonl").string();
    {
        obs::RunLedger ledger(ledger_path);
        obs::RunRecord p;
        p.kind = "point";
        p.bench = "fig13_dynamic";
        p.run = "fig13_dynamic-1-test";
        p.specHash = 0x1234;
        p.tsMs = 1.0;
        ledger.append(p);
    }
    for (const fs::path &side : {dir / "attr" / "fig12-main.json",
                                 dir / "stale" / "attr" / "x.json"}) {
        std::ofstream out(side);
        obs::writeAttributionJson(out, syntheticBatch());
    }

    dashboard::DashboardData data;
    ASSERT_TRUE(dashboard::loadDashboardData({ledger_path}, dir.string(),
                                             "", "", &data));
    EXPECT_EQ(data.title, "capart fig13_dynamic — fig13_dynamic-1-test");
    ASSERT_EQ(data.points.size(), 1u);
    ASSERT_EQ(data.batches.size(), 1u);
    EXPECT_EQ(data.batches[0].attrFile,
              (dir / "attr" / "fig12-main.json").string());
    EXPECT_EQ(dashboard::sampleTotal(data), 2u);

    std::ostringstream html;
    dashboard::renderDashboardHtml(html, data);
    const Json doc = embeddedBlob(html.str());
    ASSERT_EQ(doc.at("points").arr.size(), 1u);
    ASSERT_EQ(doc.at("batches").arr.size(), 1u);
    EXPECT_FALSE(doc.at("shards").isArr()) << "no shard records remain";

    // A --run that names no run is an error, not an empty page.
    dashboard::DashboardData none;
    EXPECT_FALSE(dashboard::loadDashboardData({ledger_path}, dir.string(),
                                              "no-such-run", "", &none));
    fs::remove_all(dir);
}

} // namespace
} // namespace capart
