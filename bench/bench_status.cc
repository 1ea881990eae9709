/**
 * @file
 * bench_status: pretty-print (or live-watch) a sharded sweep's
 * `status.json`.
 *
 * Typical usage, while a sweep runs in another terminal:
 *
 *     bench_fig13_dynamic --shards=4 --obs-dir=obs &
 *     bench_status --watch obs/status.json
 *
 * The status file is atomically replaced by the supervisor (see
 * src/obs/status.hh), so reads here always see a complete document.
 * --watch re-reads every --interval seconds (default 1) and redraws;
 * it exits 0 on its own once the sweep state leaves "running". A
 * single-shot read of a missing or unparsable file exits 1; under
 * --watch the file may simply not exist yet, so missing files are
 * retried.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/status.hh"

namespace
{

void
usage(const char *argv0, int status)
{
    std::printf(
        "Pretty-print a sharded sweep's live status.json "
        "(<obs-dir>/status.json).\n\n"
        "usage: %s [options] STATUS_FILE\n"
        "  --watch         redraw every interval until the sweep "
        "finishes\n"
        "  --interval=S    refresh period in seconds (default 1)\n"
        "  --json          dump the (re-encoded) document instead of "
        "the table\n",
        argv0);
    std::exit(status);
}

const char *
fmtDouble(char *buf, std::size_t n, const char *fmt, double v)
{
    std::snprintf(buf, n, fmt, v);
    return buf;
}

void
printStatus(const capart::obs::SweepStatus &s)
{
    char buf[64];
    std::printf("%s  run=%s  state=%s  shards=%u\n", s.bench.c_str(),
                s.run.empty() ? "-" : s.run.c_str(), s.state.c_str(),
                s.shards);
    std::printf("points %llu/%llu done (%llu cached, %llu quarantined, "
                "%llu retries)",
                static_cast<unsigned long long>(s.pointsDone),
                static_cast<unsigned long long>(s.pointsTotal),
                static_cast<unsigned long long>(s.pointsFromCache),
                static_cast<unsigned long long>(s.pointsQuarantined),
                static_cast<unsigned long long>(s.retries));
    if (s.throughputPointsPerMin > 0.0)
        std::printf("  %s pts/min",
                    fmtDouble(buf, sizeof buf, "%.1f",
                              s.throughputPointsPerMin));
    if (s.etaS >= 0.0)
        std::printf("  eta %s s",
                    fmtDouble(buf, sizeof buf, "%.0f", s.etaS));
    if (s.pointsDone > 0)
        std::printf("  cache-hit %s",
                    fmtDouble(buf, sizeof buf, "%.0f%%",
                              100.0 * s.cacheHitRate));
    std::printf("\n\n");

    std::printf("%5s %8s %-8s %9s %7s %6s %7s %6s %7s %8s %s\n", "shard",
                "pid", "state", "done", "cached", "quar", "retries",
                "kills", "crashes", "beat(s)", "current point");
    for (const auto &sh : s.shardStates) {
        char done[32];
        std::snprintf(done, sizeof done, "%llu/%llu",
                      static_cast<unsigned long long>(sh.pointsDone),
                      static_cast<unsigned long long>(sh.pointsAssigned));
        char beat[32];
        if (sh.lastBeatAgeS >= 0.0)
            std::snprintf(beat, sizeof beat, "%.1f", sh.lastBeatAgeS);
        else
            std::snprintf(beat, sizeof beat, "-");
        std::string current;
        if (!sh.currentSpec.empty()) {
            current = sh.currentSpec;
            if (current.size() > 40)
                current = current.substr(0, 37) + "...";
            char el[32];
            std::snprintf(el, sizeof el, " (%.1fs)", sh.currentElapsedS);
            current += el;
        }
        std::printf("%5u %8ld %-8s %9s %7llu %6llu %7llu %6llu %7llu "
                    "%8s %s\n",
                    sh.shard, sh.pid, sh.state.c_str(), done,
                    static_cast<unsigned long long>(sh.pointsFromCache),
                    static_cast<unsigned long long>(sh.pointsQuarantined),
                    static_cast<unsigned long long>(sh.retries),
                    static_cast<unsigned long long>(sh.timeoutKills),
                    static_cast<unsigned long long>(sh.crashes), beat,
                    current.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool watch = false;
    bool json = false;
    double interval_s = 1.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--watch") {
            watch = true;
        } else if (arg.rfind("--interval=", 0) == 0) {
            interval_s = std::atof(arg.c_str() + 11);
            if (interval_s <= 0.0)
                interval_s = 1.0;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help") {
            usage(argv[0], 0);
        } else if (arg.rfind("--", 0) == 0) {
            usage(argv[0], 1);
        } else if (path.empty()) {
            path = arg;
        } else {
            usage(argv[0], 1);
        }
    }
    if (path.empty())
        usage(argv[0], 1);

    for (;;) {
        capart::obs::SweepStatus s;
        const bool ok = capart::obs::readStatusFile(path, &s);
        if (!ok && !watch) {
            std::fprintf(stderr,
                         "bench_status: cannot read %s (missing or "
                         "unparsable)\n",
                         path.c_str());
            return 1;
        }
        if (ok) {
            if (watch)
                std::printf("\033[H\033[2J"); // clear screen
            if (json)
                std::printf("%s\n", capart::obs::encodeStatus(s).c_str());
            else
                printStatus(s);
            std::fflush(stdout);
            if (!watch || s.state != "running")
                return 0;
        } else if (watch) {
            std::printf("bench_status: waiting for %s ...\n",
                        path.c_str());
            std::fflush(stdout);
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            interval_s));
    }
}
