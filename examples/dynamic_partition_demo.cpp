/**
 * @file
 * Watch the dynamic partitioning algorithm (§6) work: run the phased
 * 429.mcf as foreground against a continuously-running background and
 * print the controller's allocation decisions as an ASCII timeline —
 * way allocation growing at phase changes and shrinking as the probe
 * finds spare capacity. An SLO monitor then reads the foreground's
 * perf windows (observing, never steering) and reports whether the
 * foreground stayed within its responsiveness budget window by window.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_partitioner.hh"
#include "core/slo_monitor.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"

int
main()
{
    using namespace capart;

    SystemConfig config;
    config.perfWindow = 20e-6; // scaled analogue of the 100 ms window

    // Baseline for the SLO: the foreground alone on half the LLC —
    // the paper's responsiveness reference point.
    double baseline_ips = 0.0;
    {
        System alone(config);
        const AppId solo = alone.addAppThreads(
            Catalog::byName("429.mcf").scaled(0.5), 0, 1);
        alone.setWayMask(solo, WayMask::range(0, alone.llcWays() / 2));
        const RunResult r = alone.run();
        baseline_ips = r.app(solo).throughputIps;
    }

    System machine(config);
    const AppId fg = machine.addAppThreads(
        Catalog::byName("429.mcf").scaled(0.5), 0, 1);
    const AppId bg = machine.addAppOnCores(
        Catalog::byName("dedup").scaled(0.5), 2, 2, /*continuous=*/true);

    DynamicPartitioner controller(fg, {bg});
    machine.setController(&controller);

    std::printf("running 429.mcf (fg, 1 thread) + dedup (bg, looping) "
                "under Algorithm 6.2\n\n");
    const RunResult result = machine.run();

    // The monitor only observes, so it evaluates the foreground's
    // windows after the run, each stamped with its end.
    SloMonitor slo;
    slo.setBaseline(baseline_ips);
    std::vector<std::pair<Seconds, SloTransition>> transitions;
    for (const PerfWindow &w : machine.monitor(fg).windows()) {
        const SloTransition tr = slo.onWindow(w.end, w);
        if (tr != SloTransition::None)
            transitions.emplace_back(w.end, tr);
    }

    // Timeline: one row per ~40 windows.
    std::printf("%-10s  %-8s  %-6s  %s\n", "time(us)", "fg MPKI",
                "ways", "allocation (#=fg way, .=bg way)");
    const auto &history = controller.history();
    const std::size_t step = history.size() / 30 + 1;
    for (std::size_t i = 0; i < history.size(); i += step) {
        const AllocationEvent &ev = history[i];
        std::string bar(ev.fgWays, '#');
        bar += std::string(machine.llcWays() - ev.fgWays, '.');
        std::printf("%-10.1f  %-8.1f  %-6u  %s%s\n", ev.time * 1e6,
                    ev.windowMpki, ev.fgWays, bar.c_str(),
                    ev.phase == PhaseEvent::NewPhase ? "  <- new phase"
                                                     : "");
    }

    std::printf("\nforeground completed in %.2f ms; background retired "
                "%.1f M instructions\n(%u full iterations); %llu "
                "reallocations, %llu phase changes detected.\n",
                result.app(fg).completionTime * 1e3,
                static_cast<double>(result.app(bg).retired) / 1e6,
                result.app(bg).iterations,
                static_cast<unsigned long long>(
                    controller.reallocations()),
                static_cast<unsigned long long>(
                    controller.detector().phaseChanges()));

    std::printf("\nSLO monitor (target: fg within %.0f%% of alone on "
                "half the LLC):\n  %llu windows evaluated, %llu "
                "breach(es), %llu window(s) in breach;\n  final "
                "slowdown %.3f, short/long burn %.2f/%.2f -> %s\n",
                (SloMonitor::kObjective - 1.0) * 100.0,
                static_cast<unsigned long long>(slo.windows()),
                static_cast<unsigned long long>(slo.breaches()),
                static_cast<unsigned long long>(slo.breachWindows()),
                slo.lastSlowdown(), slo.shortBurn(), slo.longBurn(),
                slo.inBreach() ? "IN BREACH" : "within SLO");
    for (const auto &[t, tr] : transitions) {
        std::printf("  t=%.1fus %s\n", t * 1e6,
                    tr == SloTransition::Breach ? "slo-breach"
                                                : "slo-recovered");
    }
    return 0;
}
