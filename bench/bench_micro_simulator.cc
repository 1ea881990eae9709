/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * raw cache accesses, full-hierarchy accesses, access generation, the
 * batched quantum-replay loop, and an end-to-end quantum. These guard
 * the simulation throughput that makes the 45x45 co-run matrix
 * tractable.
 *
 * Beyond the console numbers, `--ledger=PATH` appends one `point`
 * record per benchmark to the shared run ledger: spec = the benchmark
 * name, single metric `accesses_per_s` (items/second). The report
 * layer pairs those points across nightly runs by spec hash and its
 * regression gate (bench_report --bench=micro_simulator --gate) FAILs
 * when throughput drops by more than its 5 % fail threshold, so a perf
 * regression on the replay hot path turns the nightly red.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/util.hh"
#include "mem/hierarchy.hh"
#include "mem/set_assoc_cache.hh"
#include "obs/run_ledger.hh"
#include "prefetch/prefetchers.hh"
#include "sim/experiment.hh"
#include "workload/access_ring.hh"
#include "workload/catalog.hh"
#include "workload/generator.hh"

namespace
{

using namespace capart;

void
BM_LlcAccess(benchmark::State &state)
{
    CacheConfig cfg = HierarchyConfig::sandyBridge().llc;
    cfg.repl = static_cast<ReplPolicy>(state.range(0));
    SetAssocCache cache(cfg);
    Rng rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const Addr line = rng.below(1u << 18);
        sink += cache.access(line, false, 0).hit;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LlcAccess)
    ->Arg(static_cast<int>(ReplPolicy::LRU))
    ->Arg(static_cast<int>(ReplPolicy::BitPLRU))
    ->Arg(static_cast<int>(ReplPolicy::NRU))
    ->Arg(static_cast<int>(ReplPolicy::TreePLRU));

void
BM_HierarchyAccess(benchmark::State &state)
{
    CacheHierarchy h(HierarchyConfig::sandyBridge(), 4);
    Rng rng(2);
    std::uint64_t sink = 0;
    // Working set of state.range(0) KiB.
    const std::uint64_t lines =
        static_cast<std::uint64_t>(state.range(0)) * 1024 / kLineBytes;
    for (auto _ : state) {
        const Addr addr = rng.below(lines) * kLineBytes;
        sink += static_cast<unsigned>(
            h.access(0, 0, addr, false).servedBy);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess)->Arg(16)->Arg(512)->Arg(8192);

void
BM_GeneratorQuantum(benchmark::State &state)
{
    const AppParams &app = Catalog::byName("459.GemsFDTD");
    ThreadWorkload wl(app, 0, 1, 1ull << 40, 3);
    AccessRing ring;
    for (auto _ : state) {
        ring.clear();
        if (wl.done())
            wl.restart();
        wl.runQuantum(4000, 0.0, ring);
        benchmark::DoNotOptimize(ring.size());
    }
    state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_GeneratorQuantum);

/**
 * The quantum-loop memory hot path, isolated: generate one quantum
 * into the access ring and drain it through the hierarchy exactly as
 * System::stepHt does — demand access, prefetcher training, prefetch
 * fills — with no timing/energy bookkeeping around it. Items = memory
 * accesses replayed, so items/second is the simulator's headline
 * accesses/sec figure, and the one the nightly regression gate pins.
 */
void
BM_QuantumReplayFast(benchmark::State &state)
{
    CacheHierarchy h(HierarchyConfig::sandyBridge(), 4);
    PrefetcherBank pf;
    const AppParams &app = Catalog::byName("459.GemsFDTD");
    ThreadWorkload wl(app, 0, 1, 1ull << 40, 3);
    AccessRing ring;
    std::vector<PrefetchRequest> pbuf;
    std::uint64_t accesses = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        ring.clear();
        if (wl.done())
            wl.restart();
        wl.runQuantum(4000, 0.0, ring);
        for (const MemAccess &acc : ring) {
            if (acc.uncached)
                continue;
            const HierarchyOutcome out =
                h.access(0, 0, acc.addr, acc.write);
            sink += static_cast<unsigned>(out.servedBy);
            pbuf.clear();
            pf.observe(acc.pc, lineAddr(acc.addr),
                       out.servedBy != ServiceLevel::L1, pbuf);
            for (const PrefetchRequest &req : pbuf) {
                sink += req.intoL1
                            ? h.prefetchIntoL1(0, 0, req.line).dramReads
                            : h.prefetchIntoL2(0, 0, req.line).dramReads;
            }
        }
        accesses += ring.size();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
// Name kept: the throughput gate keys each series by fnv1a64(name).
BENCHMARK(BM_QuantumReplayFast);

/**
 * Many-core replay: state.range(0) streaming cores sharing the LLC,
 * one quantum per core round-robin — the co-run matrix hot path. The
 * shared LLC thrashes, so every fill back-invalidates; this is the
 * path the inclusive-LLC core-valid directory turns from O(cores) per
 * eviction into O(holders).
 */
void
BM_QuantumReplayManyCore(benchmark::State &state)
{
    const unsigned cores = static_cast<unsigned>(state.range(0));
    CacheHierarchy h(HierarchyConfig::sandyBridge(), cores);
    std::vector<PrefetcherBank> pf(cores);
    const AppParams &app = Catalog::byName("459.GemsFDTD");
    std::vector<std::unique_ptr<ThreadWorkload>> wls;
    for (unsigned c = 0; c < cores; ++c)
        wls.push_back(std::make_unique<ThreadWorkload>(
            app, 0, 1, (1ull + c) << 40, 3 + c));
    AccessRing ring;
    std::vector<PrefetchRequest> pbuf;
    std::uint64_t accesses = 0;
    std::uint64_t sink = 0;
    unsigned turn = 0;
    for (auto _ : state) {
        const unsigned c = turn;
        turn = (turn + 1) % cores;
        ThreadWorkload &wl = *wls[c];
        ring.clear();
        if (wl.done())
            wl.restart();
        wl.runQuantum(4000, 0.0, ring);
        for (const MemAccess &acc : ring) {
            if (acc.uncached)
                continue;
            const HierarchyOutcome out =
                h.access(c, c, acc.addr, acc.write);
            sink += static_cast<unsigned>(out.servedBy);
            pbuf.clear();
            pf[c].observe(acc.pc, lineAddr(acc.addr),
                          out.servedBy != ServiceLevel::L1, pbuf);
            for (const PrefetchRequest &req : pbuf) {
                sink += req.intoL1
                            ? h.prefetchIntoL1(c, c, req.line).dramReads
                            : h.prefetchIntoL2(c, c, req.line).dramReads;
            }
        }
        accesses += ring.size();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}
BENCHMARK(BM_QuantumReplayManyCore)->Arg(4)->Arg(16);

void
BM_SoloRunEndToEnd(benchmark::State &state)
{
    const AppParams &app = Catalog::byName("ferret");
    for (auto _ : state) {
        SoloOptions o;
        o.threads = 4;
        o.scale = 0.01;
        const SoloResult r = runSolo(app, o);
        benchmark::DoNotOptimize(r.time);
    }
}
BENCHMARK(BM_SoloRunEndToEnd)->Unit(benchmark::kMillisecond);

// -------------------------------------------------- ledger emission --

/** Console reporter that also captures each run's items/second. */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Item
    {
        std::string name;
        double itemsPerSecond = 0.0;
        double wallMs = 0.0;
    };

    std::vector<Item> items;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &r : reports) {
            if (r.error_occurred || r.run_type != Run::RT_Iteration)
                continue;
            const auto it = r.counters.find("items_per_second");
            if (it == r.counters.end())
                continue;
            items.push_back(Item{r.benchmark_name(),
                                 static_cast<double>(it->second),
                                 r.real_accumulated_time * 1e3});
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

} // namespace

/**
 * BENCHMARK_MAIN() replacement: identical behaviour plus an optional
 * `--ledger=PATH` flag (stripped before google-benchmark sees argv)
 * that appends one throughput point per benchmark to the run ledger.
 */
int
main(int argc, char **argv)
{
    std::string ledger_path;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--ledger=", 0) == 0)
            ledger_path = arg.substr(9);
        else
            passthrough.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(passthrough.size());

    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
        return 1;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!ledger_path.empty()) {
        obs::RunLedger ledger(ledger_path);
        if (!ledger.ok()) {
            std::fprintf(stderr,
                         "bench_micro_simulator: cannot append to %s\n",
                         ledger_path.c_str());
            return 1;
        }
        const double now_ms = unixMillisNow();
        const std::string run_id =
            "micro_simulator-" +
            std::to_string(static_cast<std::uint64_t>(now_ms));
        for (const CapturingReporter::Item &item : reporter.items) {
            obs::RunRecord rec;
            rec.kind = "point";
            rec.bench = "micro_simulator";
            rec.run = run_id;
            rec.spec = item.name;
            rec.specHash = fnv1a64(item.name);
            rec.tsMs = now_ms;
            rec.wallMs = item.wallMs;
            rec.metrics.emplace_back("accesses_per_s",
                                     item.itemsPerSecond);
            ledger.append(rec);
        }
    }
    return 0;
}
