/**
 * @file
 * Unit tests for the workload module: catalog integrity against the
 * paper's §2.3 suite composition, the Amdahl work-sharing model, and
 * the deterministic access generators.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/units.hh"
#include "workload/catalog.hh"
#include "workload/generator.hh"

namespace capart
{
namespace
{

TEST(Catalog, FortyFiveApps)
{
    EXPECT_EQ(Catalog::all().size(), Catalog::kNumApps);
    EXPECT_EQ(Catalog::kNumApps, 45u);
}

TEST(Catalog, SuiteComposition)
{
    // §2.3: 13 PARSEC, 14 DaCapo, 12 SPEC, 4 parallel apps, 2 ubench.
    std::map<Suite, std::size_t> perSuite;
    for (const auto &a : Catalog::all())
        ++perSuite[a.suite];
    EXPECT_EQ(perSuite[Suite::Parsec], 13u);
    EXPECT_EQ(perSuite[Suite::DaCapo], 14u);
    EXPECT_EQ(perSuite[Suite::SpecCpu], 12u);
    EXPECT_EQ(perSuite[Suite::ParallelApps], 4u);
    EXPECT_EQ(perSuite[Suite::Microbench], 2u);
    EXPECT_EQ(perSuite.size(), 5u);
}

TEST(Catalog, NamesUniqueAndLookupsWork)
{
    std::set<std::string> names;
    for (const auto &a : Catalog::all())
        names.insert(a.name);
    EXPECT_EQ(names.size(), Catalog::kNumApps);

    EXPECT_TRUE(Catalog::contains("429.mcf"));
    EXPECT_FALSE(Catalog::contains("not-a-benchmark"));
    EXPECT_EQ(Catalog::byName("ferret").suite, Suite::Parsec);
}

TEST(Catalog, AllEntriesValidate)
{
    for (const auto &a : Catalog::all())
        a.validate(); // panics on inconsistency
    SUCCEED();
}

TEST(Catalog, SpecAndMicrobenchAreSingleThreaded)
{
    for (const auto &a : Catalog::all()) {
        if (a.suite == Suite::SpecCpu || a.suite == Suite::Microbench)
            EXPECT_EQ(a.maxThreads, 1u) << a.name;
        else
            EXPECT_GT(a.maxThreads, 1u) << a.name;
    }
}

TEST(Catalog, ClusterRepresentativesMatchTable3)
{
    const auto &reps = Catalog::clusterRepresentatives();
    EXPECT_EQ(reps[0], "429.mcf");
    EXPECT_EQ(reps[1], "459.GemsFDTD");
    EXPECT_EQ(reps[2], "ferret");
    EXPECT_EQ(reps[3], "fop");
    EXPECT_EQ(reps[4], "dedup");
    EXPECT_EQ(reps[5], "batik");
    for (const auto rep : reps)
        EXPECT_TRUE(Catalog::contains(rep));
}

TEST(Catalog, McfHasThePaperPhaseStructure)
{
    const AppParams &mcf = Catalog::byName("429.mcf");
    // Fig. 12: 5 transitions between low- and high-MPKI phases.
    EXPECT_EQ(mcf.phases.size(), 6u);
    EXPECT_GT(mcf.phases[0].memRatio, mcf.phases[1].memRatio);
}

TEST(Catalog, Table1ScalabilityClassesRecorded)
{
    EXPECT_EQ(Catalog::byName("h2").expectedScal, ScalClass::Low);
    EXPECT_EQ(Catalog::byName("dedup").expectedScal,
              ScalClass::Saturated);
    EXPECT_EQ(Catalog::byName("blackscholes").expectedScal,
              ScalClass::High);
    for (const auto &a : Catalog::all()) {
        if (a.suite == Suite::SpecCpu) {
            EXPECT_EQ(a.expectedScal, ScalClass::Low) << a.name;
        }
    }
}

TEST(Catalog, Table2UtilityClassesRecorded)
{
    EXPECT_EQ(Catalog::byName("swaptions").expectedUtil, UtilClass::Low);
    EXPECT_EQ(Catalog::byName("tomcat").expectedUtil,
              UtilClass::Saturated);
    EXPECT_EQ(Catalog::byName("471.omnetpp").expectedUtil,
              UtilClass::High);
}

TEST(Catalog, ScaledPreservesEverythingButLength)
{
    const AppParams &a = Catalog::byName("ferret");
    const AppParams half = a.scaled(0.5);
    EXPECT_EQ(half.lengthInsts, a.lengthInsts / 2);
    EXPECT_EQ(half.phases.size(), a.phases.size());
    EXPECT_EQ(half.name, a.name);
}

TEST(WorkShare, SingleThreadGetsEverything)
{
    const AppParams &a = Catalog::byName("ferret");
    EXPECT_NEAR(static_cast<double>(threadWorkShare(a, 0, 1)),
                static_cast<double>(a.lengthInsts), 2.0);
}

TEST(WorkShare, SerialFractionStaysOnThreadZero)
{
    AppParams a = Catalog::byName("h2"); // serial-heavy
    const Insts t0 = threadWorkShare(a, 0, 4);
    const Insts t1 = threadWorkShare(a, 1, 4);
    EXPECT_GT(t0, t1);
    const double serial_part =
        static_cast<double>(t0 - t1) / static_cast<double>(a.lengthInsts);
    EXPECT_NEAR(serial_part, a.serialFraction, 0.02);
}

TEST(WorkShare, MaxThreadsCapsUsefulThreads)
{
    const AppParams &spec = Catalog::byName("462.libquantum");
    EXPECT_GT(threadWorkShare(spec, 0, 8), 0u);
    for (unsigned t = 1; t < 8; ++t)
        EXPECT_EQ(threadWorkShare(spec, t, 8), 0u);
}

TEST(WorkShare, SyncCostInflatesTotalWork)
{
    const AppParams &a = Catalog::byName("dedup"); // syncCost > 0
    Insts total1 = threadWorkShare(a, 0, 1);
    Insts total8 = 0;
    for (unsigned t = 0; t < 8; ++t)
        total8 += threadWorkShare(a, t, 8);
    EXPECT_GT(total8, total1);
}

TEST(Generator, DeterministicForSameSeed)
{
    const AppParams &a = Catalog::byName("canneal");
    ThreadWorkload w1(a, 0, 4, 0x1000000, 42);
    ThreadWorkload w2(a, 0, 4, 0x1000000, 42);
    std::vector<MemAccess> a1, a2;
    w1.runQuantum(10000, 0.0, a1);
    w2.runQuantum(10000, 0.0, a2);
    ASSERT_EQ(a1.size(), a2.size());
    for (std::size_t i = 0; i < a1.size(); ++i) {
        EXPECT_EQ(a1[i].addr, a2[i].addr);
        EXPECT_EQ(a1[i].pc, a2[i].pc);
        EXPECT_EQ(a1[i].write, a2[i].write);
    }
}

TEST(Generator, AccessCountTracksMemRatio)
{
    const AppParams &a = Catalog::byName("462.libquantum");
    ThreadWorkload w(a, 0, 1, 0x1000000, 1);
    std::vector<MemAccess> acc;
    const Insts ran = w.runQuantum(100000, 0.0, acc);
    EXPECT_EQ(ran, 100000u);
    const double ratio = static_cast<double>(acc.size()) / 100000.0;
    EXPECT_NEAR(ratio, a.phases[0].memRatio, 0.01);
}

TEST(Generator, AddressesStayWithinLayout)
{
    const AppParams &a = Catalog::byName("fop");
    const Addr base = 0x4000000000ull;
    ThreadWorkload w(a, 0, 4, base, 3);
    std::vector<MemAccess> acc;
    w.runQuantum(200000, 0.0, acc);
    std::uint64_t footprint = 0;
    for (const auto &ph : a.phases)
        for (const auto &p : ph.patterns)
            footprint += p.regionBytes + kLineBytes;
    for (const auto &m : acc) {
        EXPECT_GE(m.addr, base);
        EXPECT_LT(m.addr, base + footprint);
    }
}

TEST(Generator, UncachedFlagOnlyForStreamPattern)
{
    std::vector<MemAccess> acc;
    ThreadWorkload hog(Catalog::byName("stream_uncached"), 0, 1,
                       0x1000000, 5);
    hog.runQuantum(10000, 0.0, acc);
    ASSERT_FALSE(acc.empty());
    for (const auto &m : acc)
        EXPECT_TRUE(m.uncached);

    acc.clear();
    ThreadWorkload normal(Catalog::byName("ferret"), 0, 4, 0x2000000, 5);
    normal.runQuantum(10000, 0.0, acc);
    for (const auto &m : acc)
        EXPECT_FALSE(m.uncached);
}

TEST(Generator, PhaseSelectionByProgress)
{
    const AppParams &mcf = Catalog::byName("429.mcf");
    ThreadWorkload w(mcf, 0, 1, 0x1000000, 7);
    EXPECT_EQ(w.phaseIndexAt(0.0), 0u);
    EXPECT_EQ(w.phaseIndexAt(0.2), 1u);
    EXPECT_EQ(w.phaseIndexAt(0.99), 5u);
    EXPECT_EQ(w.phaseIndexAt(1.5), 5u) << "clamps past the end";
}

TEST(Generator, PointerChaseLowersEffectiveMlp)
{
    const AppParams &ccbench = Catalog::byName("ccbench"); // pure chase
    ThreadWorkload w(ccbench, 0, 1, 0x1000000, 9);
    EXPECT_NEAR(w.effectiveMlp(0.0), 1.0, 0.01);

    const AppParams &lib = Catalog::byName("462.libquantum"); // no chase
    ThreadWorkload w2(lib, 0, 1, 0x2000000, 9);
    EXPECT_NEAR(w2.effectiveMlp(0.0), lib.mlp, 0.01);
}

TEST(Generator, RestartRewindsWork)
{
    const AppParams &a = Catalog::byName("swaptions");
    ThreadWorkload w(a.scaled(0.001), 0, 1, 0x1000000, 11);
    std::vector<MemAccess> acc;
    while (!w.done())
        w.runQuantum(4000, 0.5, acc);
    EXPECT_TRUE(w.done());
    w.restart();
    EXPECT_FALSE(w.done());
    EXPECT_EQ(w.retired(), 0u);
}

TEST(Generator, SequentialCursorWrapsRegion)
{
    AppParams a;
    a.name = "seqtest";
    a.lengthInsts = 1'000'000;
    PhaseSpec ph;
    ph.instFraction = 1.0;
    ph.memRatio = 1.0;
    PatternSpec p;
    p.kind = PatternKind::Sequential;
    p.regionBytes = 1024; // 16 lines
    p.strideBytes = 64;
    p.weight = 1.0;
    ph.patterns = {p};
    a.phases = {ph};

    ThreadWorkload w(a, 0, 1, 0, 1);
    std::vector<MemAccess> acc;
    w.runQuantum(64, 0.0, acc);
    ASSERT_EQ(acc.size(), 64u);
    std::set<Addr> lines;
    for (const auto &m : acc)
        lines.insert(lineAddr(m.addr));
    EXPECT_EQ(lines.size(), 16u) << "walk wraps within the region";
}

// Property: the expected classifications must be internally coherent
// with the generator parameters that implement them.
TEST(CatalogProperty, BandwidthSensitiveAppsMoveData)
{
    for (const auto &a : Catalog::all()) {
        if (!a.expectedBandwidthSensitive ||
            a.suite == Suite::Microbench) {
            continue;
        }
        // Estimated DRAM-visible traffic per instruction (bytes).
        double bpi = 0.0;
        for (const auto &ph : a.phases) {
            double miss_weight = 0.0;
            for (const auto &p : ph.patterns) {
                const double line_rate =
                    (p.kind == PatternKind::Sequential ||
                     p.kind == PatternKind::StreamUncached)
                        ? static_cast<double>(p.strideBytes) / kLineBytes
                        : 1.0;
                if (p.regionBytes > mib(5))
                    miss_weight += p.weight * std::min(1.0, line_rate);
            }
            bpi += ph.instFraction * ph.memRatio * miss_weight *
                   kLineBytes;
        }
        EXPECT_GT(bpi, 0.4) << a.name
                            << " flagged bandwidth-sensitive but barely "
                               "touches DRAM";
    }
}

} // namespace
} // namespace capart
