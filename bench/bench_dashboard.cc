/**
 * @file
 * bench_dashboard: join a run ledger and a bench's obs directory (its
 * attribution side files, which carry the decision journal) into one
 * self-contained HTML dashboard — the only renderer.
 *
 * Typical usage:
 *
 *     bench_fig13_dynamic --quick --ledger=runs.jsonl \
 *         --obs-sample-period=8 --obs-dir=obs
 *     bench_dashboard --ledger=runs.jsonl --obs-dir=obs \
 *         --out=dashboard.html
 *
 * The newest run in the ledger (or --run=ID) supplies the point
 * records; every point that carries an `attr_file` pointer has its
 * attribution document loaded and embedded. --obs-dir=D adds the side
 * files under D/attr that no ledger point links (a bench driving
 * System directly, such as Fig. 12). The output opens offline — all
 * data and drawing code are inline.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dashboard/dashboard.hh"

namespace
{

void
usage(const char *argv0, int status)
{
    std::printf(
        "Render a self-contained HTML dashboard from capart "
        "observability output.\n\n"
        "usage: %s [--ledger=F ...] [--obs-dir=D] [options]\n"
        "  --ledger=F   JSONL run ledger to read (repeatable)\n"
        "  --obs-dir=D  a bench's --obs-dir: embed its attribution "
        "side files\n"
        "  --run=ID     run id to show (default: newest in the "
        "ledger)\n"
        "  --bench=NAME only consider runs of this bench\n"
        "  --title=S    page title (default: bench + run id)\n"
        "  --out=F      output HTML path (default: stdout)\n",
        argv0);
    std::exit(status);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> ledgers;
    std::string obs_dir;
    std::string run_id;
    std::string bench;
    std::string title;
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--ledger=", 0) == 0) {
            ledgers.push_back(arg.substr(9));
        } else if (arg.rfind("--obs-dir=", 0) == 0) {
            obs_dir = arg.substr(10);
        } else if (arg.rfind("--run=", 0) == 0) {
            run_id = arg.substr(6);
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench = arg.substr(8);
        } else if (arg.rfind("--title=", 0) == 0) {
            title = arg.substr(8);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            usage(argv[0], arg == "--help" ? 0 : 1);
        }
    }
    if (ledgers.empty() && obs_dir.empty())
        usage(argv[0], 1);

    capart::dashboard::DashboardData data;
    if (!capart::dashboard::loadDashboardData(ledgers, obs_dir, run_id,
                                              bench, &data))
        return 1;
    if (!title.empty())
        data.title = title;

    if (out_path.empty()) {
        capart::dashboard::renderDashboardHtml(std::cout, data);
        return 0;
    }
    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "bench_dashboard: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    capart::dashboard::renderDashboardHtml(out, data);
    std::fprintf(stderr,
                 "bench_dashboard: wrote %s (%zu batches, %zu samples, "
                 "%zu points)\n",
                 out_path.c_str(), data.batches.size(),
                 capart::dashboard::sampleTotal(data), data.points.size());
    return 0;
}
