#include "workload/catalog.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace capart
{

namespace
{

PatternSpec
seq(std::uint64_t region, double w, std::uint64_t stride = 8)
{
    PatternSpec p;
    p.kind = PatternKind::Sequential;
    p.regionBytes = region;
    p.strideBytes = stride;
    p.weight = w;
    return p;
}

PatternSpec
strided(std::uint64_t region, double w, std::uint64_t stride,
        double jump = 0.0)
{
    PatternSpec p;
    p.kind = PatternKind::Strided;
    p.regionBytes = region;
    p.strideBytes = stride;
    p.weight = w;
    p.jumpProbability = jump;
    return p;
}

PatternSpec
rnd(std::uint64_t region, double w)
{
    PatternSpec p;
    p.kind = PatternKind::RandomInRegion;
    p.regionBytes = region;
    p.weight = w;
    return p;
}

PatternSpec
chase(std::uint64_t region, double w)
{
    PatternSpec p;
    p.kind = PatternKind::PointerChase;
    p.regionBytes = region;
    p.weight = w;
    p.writeFraction = 0.05;
    return p;
}

PatternSpec
uncachedStream(std::uint64_t region, double w)
{
    PatternSpec p;
    p.kind = PatternKind::StreamUncached;
    p.regionBytes = region;
    p.strideBytes = kLineBytes;
    p.weight = w;
    p.writeFraction = 0.5;
    return p;
}

PhaseSpec
phase(double frac, double mem_ratio, std::vector<PatternSpec> pats)
{
    PhaseSpec ph;
    ph.instFraction = frac;
    ph.memRatio = mem_ratio;
    ph.patterns = std::move(pats);
    return ph;
}

/** Amdahl/sync parameters for each Table 1 scalability class. */
void
setScalability(AppParams &a, ScalClass c)
{
    a.expectedScal = c;
    switch (c) {
      case ScalClass::High:
        a.serialFraction = 0.03;
        a.syncCost = 0.004;
        break;
      case ScalClass::Saturated:
        // "Applications that scale up to a reduced number of threads":
        // performance saturates after 4 or 6 threads (§3.1) — beyond
        // the cap extra threads find no work (GC bottlenecks, pipeline
        // depth limits).
        a.serialFraction = 0.17;
        a.syncCost = 0.025;
        a.maxThreads = 6;
        break;
      case ScalClass::Low:
        a.serialFraction = 0.62;
        a.syncCost = 0.05;
        break;
    }
}

AppParams
base(const char *name, Suite suite, ScalClass scal, UtilClass util)
{
    AppParams a;
    a.name = name;
    a.suite = suite;
    a.expectedUtil = util;
    setScalability(a, scal);
    if (suite == Suite::SpecCpu || suite == Suite::Microbench) {
        // Single-threaded codes: extra threads do no useful work.
        a.maxThreads = 1;
        a.serialFraction = 1.0;
        a.syncCost = 0.0;
    }
    return a;
}

// Weight calibration (see DESIGN.md): with memory ratio m, the LLC
// accesses per kilo-instruction are roughly m * 1000 * (sum of random
// weights to regions larger than the L2 + 1/8 of dense-sequential
// weights). The paper's Table 2 bolds apps above 10 APKI; weights below
// are chosen to land each app on the right side of that line and to
// put its miss curve's knee at the paper's working-set size.

std::vector<AppParams>
buildCatalog()
{
    std::vector<AppParams> apps;
    const std::uint64_t K = 1024, M = 1024 * 1024;

    // ------------------------------------------------------- PARSEC --
    {
        AppParams a = base("blackscholes", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 30'000'000;
        a.baseIpc = 2.1;
        a.mlp = 4;
        a.phases = {phase(1.0, 0.08,
                          {rnd(160 * K, 0.97), rnd(768 * K, 0.03)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("bodytrack", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 26'000'000;
        a.baseIpc = 1.9;
        a.mlp = 4;
        a.phases = {phase(1.0, 0.10,
                          {rnd(192 * K, 0.95), rnd(896 * K, 0.05)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("canneal", Suite::Parsec, ScalClass::Saturated,
                           UtilClass::Saturated);
        a.lengthInsts = 22'000'000;
        a.baseIpc = 1.1;
        a.mlp = 2.2;
        a.expectedHighApki = true;
        // canneal's netlist is far larger than the LLC: a cold streaming
        // component misses regardless of allocation, while the hot
        // working set saturates around 2.5 MB (Table 2: saturated).
        a.phases = {phase(1.0, 0.20,
                          {rnd(128 * K, 0.90), rnd(48 * M, 0.045),
                           rnd(2 * M + 256 * K, 0.04),
                           chase(1 * M, 0.015)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("dedup", Suite::Parsec, ScalClass::Saturated,
                           UtilClass::Low);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.8;
        a.mlp = 5;
        a.phases = {phase(1.0, 0.14,
                          {rnd(160 * K, 0.93), rnd(640 * K, 0.05),
                           seq(4 * M, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("facesim", Suite::Parsec, ScalClass::High,
                           UtilClass::Saturated);
        a.lengthInsts = 28'000'000;
        a.baseIpc = 1.7;
        a.mlp = 5;
        a.expectedPrefetchSensitive = true;
        a.phases = {phase(1.0, 0.16,
                          {rnd(160 * K, 0.80),
                           rnd(2 * M + 256 * K, 0.035),
                           seq(12 * M, 0.165)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("ferret", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 30'000'000;
        a.baseIpc = 2.0;
        a.mlp = 4;
        a.phases = {phase(1.0, 0.11,
                          {rnd(192 * K, 0.94), rnd(512 * K, 0.04),
                           seq(3 * M, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("fluidanimate", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 26'000'000;
        a.baseIpc = 1.8;
        a.mlp = 6;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.20,
                          {rnd(160 * K, 0.68), seq(192 * M, 0.30),
                           rnd(512 * K, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("freqmine", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 30'000'000;
        a.baseIpc = 1.9;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.09,
                          {rnd(192 * K, 0.96), rnd(768 * K, 0.04)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("raytrace", Suite::Parsec, ScalClass::Saturated,
                           UtilClass::Low);
        a.lengthInsts = 28'000'000;
        a.baseIpc = 2.0;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.08,
                          {rnd(160 * K, 0.95), rnd(448 * K, 0.05)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("streamcluster", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.5;
        a.mlp = 7;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.32,
                          {rnd(128 * K, 0.55), seq(224 * M, 0.44),
                           rnd(192 * K, 0.01)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("swaptions", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 32'000'000;
        a.baseIpc = 2.2;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.05, {rnd(96 * K, 1.0)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("vips", Suite::Parsec, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 28'000'000;
        a.baseIpc = 2.0;
        a.mlp = 4;
        a.phases = {phase(1.0, 0.12,
                          {rnd(192 * K, 0.93), seq(6 * M, 0.05),
                           rnd(256 * K, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("x264", Suite::Parsec, ScalClass::High,
                           UtilClass::High);
        a.lengthInsts = 26'000'000;
        a.baseIpc = 1.9;
        a.mlp = 4;
        a.phases = {phase(1.0, 0.15,
                          {rnd(160 * K, 0.87), rnd(7 * M, 0.09),
                           seq(8 * M, 0.04)})};
        apps.push_back(a);
    }

    // ------------------------------------------------------- DaCapo --
    {
        AppParams a = base("avrora", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::Low);
        a.lengthInsts = 22'000'000;
        a.baseIpc = 1.2;
        a.mlp = 2.5;
        a.phases = {phase(1.0, 0.09,
                          {rnd(224 * K, 0.97), rnd(320 * K, 0.03)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("batik", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::Saturated);
        a.lengthInsts = 18'000'000;
        a.baseIpc = 1.3;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.12,
                          {rnd(160 * K, 0.955),
                           rnd(1 * M + 768 * K, 0.045)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("eclipse", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::High);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.2;
        a.mlp = 2.5;
        a.phases = {phase(1.0, 0.13,
                          {rnd(160 * K, 0.88),
                           rnd(6 * M + 768 * K, 0.12)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("fop", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::High);
        a.lengthInsts = 16'000'000;
        a.baseIpc = 1.25;
        a.mlp = 2.5;
        a.phases = {phase(1.0, 0.13,
                          {rnd(160 * K, 0.87),
                           rnd(7 * M, 0.13)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("h2", Suite::DaCapo, ScalClass::Low,
                           UtilClass::Saturated);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.15;
        a.mlp = 2.2;
        a.phases = {phase(1.0, 0.12,
                          {rnd(192 * K, 0.94),
                           rnd(2 * M + 512 * K, 0.05),
                           chase(1 * M, 0.01)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("jython", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::Saturated);
        a.lengthInsts = 26'000'000;
        a.baseIpc = 1.3;
        a.mlp = 2.5;
        a.phases = {phase(1.0, 0.11,
                          {rnd(192 * K, 0.95),
                           rnd(1 * M + 512 * K, 0.05)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("luindex", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::Saturated);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.35;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.11,
                          {rnd(192 * K, 0.95), rnd(2 * M, 0.04),
                           seq(3 * M, 0.01)})};
        apps.push_back(a);
    }
    {
        // lusearch: the one DaCapo code the prefetchers actively hurt
        // (Fig. 3): irregular multi-line strides trigger useless
        // adjacent-line/streamer fetches that pollute and burn
        // bandwidth while the IP prefetcher cannot lock onto a stride.
        AppParams a = base("lusearch", Suite::DaCapo, ScalClass::Saturated,
                           UtilClass::High);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.3;
        a.mlp = 3;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.phases = {phase(1.0, 0.22,
                          {rnd(128 * K, 0.85),
                           strided(12 * M, 0.05, 5 * kLineBytes, 0.35),
                           rnd(6 * M + 512 * K, 0.10)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("pmd", Suite::DaCapo, ScalClass::High,
                           UtilClass::High);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.25;
        a.mlp = 2.5;
        a.phases = {phase(1.0, 0.12,
                          {rnd(176 * K, 0.89),
                           rnd(6 * M + 512 * K, 0.11)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("sunflow", Suite::DaCapo, ScalClass::High,
                           UtilClass::Low);
        a.lengthInsts = 28'000'000;
        a.baseIpc = 1.6;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.08,
                          {rnd(256 * K, 0.96), rnd(384 * K, 0.04)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("tomcat", Suite::DaCapo, ScalClass::High,
                           UtilClass::Saturated);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.3;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.11,
                          {rnd(192 * K, 0.95),
                           rnd(2 * M + 256 * K, 0.05)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("tradebeans", Suite::DaCapo, ScalClass::Low,
                           UtilClass::High);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.1;
        a.mlp = 2.2;
        a.phases = {phase(1.0, 0.12,
                          {rnd(176 * K, 0.88), rnd(6 * M + 512 * K, 0.12)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("tradesoap", Suite::DaCapo, ScalClass::Low,
                           UtilClass::Saturated);
        a.lengthInsts = 22'000'000;
        a.baseIpc = 1.1;
        a.mlp = 2.2;
        a.phases = {phase(1.0, 0.11,
                          {rnd(176 * K, 0.95), rnd(2 * M, 0.05)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("xalan", Suite::DaCapo, ScalClass::High,
                           UtilClass::High);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.3;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.13,
                          {rnd(160 * K, 0.88),
                           rnd(6 * M + 768 * K, 0.12)})};
        apps.push_back(a);
    }

    // --------------------------------------------------------- SPEC --
    {
        // 429.mcf: the paper's phase-behaviour example (Fig. 12) —
        // alternating high-MPKI phases (need ~4.5 MB) and low-MPKI
        // phases (need ~1.5 MB).
        AppParams a = base("429.mcf", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Saturated);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 0.9;
        a.mlp = 2.0;
        a.expectedHighApki = true;
        auto hi = [&](double frac) {
            return phase(frac, 0.28,
                         {rnd(128 * K, 0.70),
                          rnd(4 * M + 512 * K, 0.26),
                          chase(1 * M, 0.04)});
        };
        auto lo = [&](double frac) {
            return phase(frac, 0.18,
                         {rnd(96 * K, 0.80),
                          rnd(1 * M + 384 * K, 0.20)});
        };
        a.phases = {hi(0.14), lo(0.16), hi(0.14), lo(0.16), hi(0.14),
                    lo(0.26)};
        apps.push_back(a);
    }
    {
        AppParams a = base("436.cactusADM", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 30'000'000;
        a.baseIpc = 1.7;
        a.mlp = 4;
        a.phases = {phase(1.0, 0.10,
                          {rnd(192 * K, 0.96),
                           strided(4 * M, 0.04, 256)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("437.leslie3d", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.6;
        a.mlp = 8;
        a.expectedHighApki = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.24,
                          {rnd(160 * K, 0.58), seq(128 * M, 0.40),
                           rnd(256 * K, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("450.soplex", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 22'000'000;
        a.baseIpc = 1.4;
        a.mlp = 6;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.26,
                          {rnd(160 * K, 0.51), seq(192 * M, 0.45),
                           rnd(512 * K, 0.04)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("453.povray", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 34'000'000;
        a.baseIpc = 2.1;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.05, {rnd(128 * K, 1.0)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("454.calculix", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 34'000'000;
        a.baseIpc = 2.0;
        a.mlp = 3;
        a.phases = {phase(1.0, 0.06,
                          {rnd(160 * K, 0.98), seq(1 * M, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("459.GemsFDTD", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 22'000'000;
        a.baseIpc = 1.5;
        a.mlp = 7;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.24,
                          {rnd(256 * K, 0.52), seq(192 * M, 0.45),
                           strided(96 * M, 0.03, 2 * kLineBytes)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("462.libquantum", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.6;
        a.mlp = 8;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.30,
                          {seq(256 * M, 0.92), rnd(64 * K, 0.08)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("470.lbm", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Low);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.5;
        a.mlp = 8;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        PatternSpec wr = seq(192 * M, 0.45);
        wr.writeFraction = 0.5;
        a.phases = {phase(1.0, 0.28,
                          {wr, seq(96 * M, 0.35), rnd(64 * K, 0.20)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("471.omnetpp", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::High);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.0;
        a.mlp = 1.8;
        a.expectedHighApki = true;
        a.phases = {phase(1.0, 0.26,
                          {rnd(128 * K, 0.87), rnd(3 * M + 512 * K, 0.08),
                           chase(5 * M + 512 * K, 0.05)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("473.astar", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Saturated);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.2;
        a.mlp = 1.8;
        a.phases = {phase(1.0, 0.16,
                          {rnd(160 * K, 0.95),
                           chase(1 * M + 512 * K, 0.03),
                           rnd(1 * M, 0.02)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("482.sphinx3", Suite::SpecCpu, ScalClass::Low,
                           UtilClass::Saturated);
        a.lengthInsts = 24'000'000;
        a.baseIpc = 1.4;
        a.mlp = 4;
        a.expectedHighApki = true;
        a.phases = {phase(1.0, 0.24,
                          {rnd(160 * K, 0.915),
                           rnd(2 * M + 256 * K, 0.055),
                           seq(8 * M, 0.03)})};
        apps.push_back(a);
    }

    // ------------------------------------------- parallel applications --
    {
        AppParams a = base("browser_animation", Suite::ParallelApps,
                           ScalClass::Saturated, UtilClass::High);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.5;
        a.mlp = 5;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.26,
                          {rnd(160 * K, 0.64), seq(14 * M, 0.28),
                           rnd(7 * M, 0.055), rnd(16 * M, 0.025)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("g500_csr", Suite::ParallelApps,
                           ScalClass::Saturated, UtilClass::High);
        a.lengthInsts = 18'000'000;
        a.baseIpc = 1.2;
        a.mlp = 5;
        a.expectedHighApki = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.30,
                          {rnd(192 * K, 0.80),
                           chase(7 * M + 512 * K, 0.06),
                           rnd(24 * M, 0.03), seq(6 * M, 0.11)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("ParaDecoder", Suite::ParallelApps,
                           ScalClass::Low, UtilClass::Saturated);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.3;
        a.mlp = 4;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.24,
                          {rnd(160 * K, 0.70),
                           rnd(2 * M + 512 * K, 0.06),
                           seq(96 * M, 0.24)})};
        apps.push_back(a);
    }
    {
        AppParams a = base("stencilprobe", Suite::ParallelApps,
                           ScalClass::Saturated, UtilClass::Saturated);
        a.lengthInsts = 20'000'000;
        a.baseIpc = 1.6;
        a.mlp = 6;
        a.expectedHighApki = true;
        a.expectedPrefetchSensitive = true;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.22,
                          {rnd(160 * K, 0.665), seq(16 * M, 0.30),
                           strided(16 * M, 0.01, 4 * kLineBytes),
                           rnd(2 * M, 0.025)})};
        apps.push_back(a);
    }

    // ----------------------------------------------- microbenchmarks --
    {
        // ccbench walks pointer chains through arrays of doubling size
        // to map out the cache hierarchy.
        AppParams a = base("ccbench", Suite::Microbench, ScalClass::Low,
                           UtilClass::Saturated);
        a.lengthInsts = 16'000'000;
        a.baseIpc = 1.8;
        a.mlp = 1.0;
        std::vector<PhaseSpec> phases;
        std::uint64_t size = 16 * K;
        for (int i = 0; i < 8; ++i) {
            phases.push_back(phase(0.125, 0.30, {chase(size, 1.0)}));
            size *= 2; // 16 KB ... 2 MB
        }
        a.phases = std::move(phases);
        apps.push_back(a);
    }
    {
        // The bandwidth hog: non-temporal streaming loads/stores that
        // never allocate in any cache (§2.3).
        AppParams a = base("stream_uncached", Suite::Microbench,
                           ScalClass::Low, UtilClass::Saturated);
        a.lengthInsts = 22'000'000;
        a.baseIpc = 2.0;
        a.mlp = 8;
        a.expectedBandwidthSensitive = true;
        a.phases = {phase(1.0, 0.45, {uncachedStream(64 * M, 1.0)})};
        apps.push_back(a);
    }

    for (auto &a : apps)
        a.validate();
    return apps;
}

} // namespace

const std::vector<AppParams> &
Catalog::all()
{
    static const std::vector<AppParams> apps = buildCatalog();
    capart_assert(apps.size() == kNumApps);
    return apps;
}

const AppParams &
Catalog::byName(std::string_view name)
{
    for (const auto &a : all()) {
        if (a.name == name)
            return a;
    }
    capart_fatal("unknown benchmark: " << std::string(name));
}

bool
Catalog::contains(std::string_view name)
{
    for (const auto &a : all()) {
        if (a.name == name)
            return true;
    }
    return false;
}

std::vector<AppParams>
Catalog::nAppMix(std::size_t n, unsigned variant)
{
    capart_assert(n >= 1);
    // Rosters by LFOC class: steep miss curves (sensitive), high-MPKI
    // capacity-insensitive codes (streaming), and low-MPKI codes
    // (light). Drawn from the paper's Table 2 utility classes.
    static const std::array<std::string_view, 5> sensitive = {
        "429.mcf", "fop", "471.omnetpp", "473.astar", "canneal"};
    static const std::array<std::string_view, 5> streaming = {
        "470.lbm", "462.libquantum", "459.GemsFDTD", "streamcluster",
        "450.soplex"};
    static const std::array<std::string_view, 5> light = {
        "ferret", "batik", "swaptions", "453.povray", "blackscholes"};

    std::vector<AppParams> mix;
    mix.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t klass = (i + variant) % 3;
        const std::size_t pick = (i / 3 + variant) % sensitive.size();
        std::string_view name;
        switch (klass) {
          case 0:
            name = sensitive[pick];
            break;
          case 1:
            name = streaming[pick];
            break;
          default:
            name = light[pick];
            break;
        }
        mix.push_back(byName(name));
    }
    return mix;
}

const std::array<std::string_view, 6> &
Catalog::clusterRepresentatives()
{
    static const std::array<std::string_view, 6> reps = {
        "429.mcf",       // C1: low scalability, LLC sensitive
        "459.GemsFDTD",  // C2: low scalability, bandwidth/prefetch bound
        "ferret",        // C3: high scalability, low cache utility
        "fop",           // C4: saturated scalability, cache sensitive
        "dedup",         // C5: saturated scalability, cache insensitive
        "batik",         // C6: saturated scalability, bandwidth insensitive
    };
    return reps;
}

} // namespace capart
