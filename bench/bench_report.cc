/**
 * @file
 * bench_report: aggregate run ledgers into the BENCH_capart.json time
 * series and a markdown regression report.
 *
 * Typical CI usage:
 *
 *     bench_fig13_dynamic --quick --ledger=runs.jsonl
 *     bench_report --ledger=runs.jsonl --json-out=BENCH_capart.json \
 *                  --md-out=report.md --gate
 *
 * With two or more runs in the ledger the oldest (or --baseline-run)
 * is compared against the newest (or --current-run): points are
 * paired by spec hash, every shared metric gets a delta, a sign test,
 * and a pass/warn/fail verdict (warn at a 2 % worse mean, fail at 5 %
 * with a sign test at 0.05), and --gate turns an overall FAIL into a
 * nonzero exit for CI. Without --gate the report is advisory and the
 * exit status is always 0.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/run_ledger.hh"
#include "report/report.hh"

namespace
{

void
usage(const char *argv0, int status)
{
    std::printf(
        "Aggregate capart run ledgers into a benchmark time series and "
        "regression report.\n\n"
        "usage: %s --ledger=F [--ledger=F ...] [options]\n"
        "  --ledger=F        JSONL run ledger to read (repeatable)\n"
        "  --bench=NAME      only consider runs of this bench\n"
        "  --baseline-run=ID baseline run id (default: oldest run)\n"
        "  --current-run=ID  current run id (default: newest run)\n"
        "  --json-out=F      write the BENCH_capart.json time series\n"
        "  --md-out=F        write the markdown report (default: stdout)\n"
        "  --gate            exit 1 when the overall verdict is FAIL\n",
        argv0);
    std::exit(status);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> ledgers;
    std::string bench_filter;
    std::string baseline_id;
    std::string current_id;
    std::string json_out;
    std::string md_out;
    bool gating = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--ledger=", 0) == 0) {
            ledgers.push_back(arg.substr(9));
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench_filter = arg.substr(8);
        } else if (arg.rfind("--baseline-run=", 0) == 0) {
            baseline_id = arg.substr(15);
        } else if (arg.rfind("--current-run=", 0) == 0) {
            current_id = arg.substr(14);
        } else if (arg.rfind("--json-out=", 0) == 0) {
            json_out = arg.substr(11);
        } else if (arg.rfind("--md-out=", 0) == 0) {
            md_out = arg.substr(9);
        } else if (arg == "--gate") {
            gating = true;
        } else {
            usage(argv[0], arg == "--help" ? 0 : 1);
        }
    }
    if (ledgers.empty())
        usage(argv[0], 1);

    std::vector<capart::obs::RunRecord> records;
    std::uint64_t skipped = 0;
    for (const std::string &path : ledgers) {
        auto loaded = capart::obs::RunLedger::load(path);
        skipped += loaded.skipped;
        for (auto &rec : loaded.records) {
            if (bench_filter.empty() || rec.bench == bench_filter)
                records.push_back(std::move(rec));
        }
    }
    if (skipped > 0) {
        std::fprintf(stderr,
                     "bench_report: skipped %llu unparsable ledger "
                     "line(s)\n",
                     static_cast<unsigned long long>(skipped));
    }

    const std::vector<capart::report::RunGroup> groups =
        capart::report::groupRuns(records);

    const auto find_group =
        [&](const std::string &id) -> const capart::report::RunGroup * {
        for (const auto &g : groups) {
            if (g.run == id)
                return &g;
        }
        std::fprintf(stderr, "bench_report: no run with id %s\n",
                     id.c_str());
        std::exit(1);
    };

    const capart::report::RunGroup *baseline = nullptr;
    const capart::report::RunGroup *current = nullptr;
    if (!baseline_id.empty())
        baseline = find_group(baseline_id);
    else if (groups.size() >= 2)
        baseline = &groups.front();
    if (!current_id.empty())
        current = find_group(current_id);
    else if (groups.size() >= 2)
        current = &groups.back();

    capart::report::RunComparison cmp;
    const bool have_cmp =
        baseline && current && baseline->run != current->run;
    if (have_cmp)
        cmp = capart::report::compareRuns(*baseline, *current);

    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out) {
            std::fprintf(stderr, "bench_report: cannot write %s\n",
                         json_out.c_str());
            return 1;
        }
        capart::report::writeBenchJson(out, groups);
    }

    const capart::report::RunComparison *cmp_or_null =
        have_cmp ? &cmp : nullptr;
    if (!md_out.empty()) {
        std::ofstream out(md_out);
        if (!out) {
            std::fprintf(stderr, "bench_report: cannot write %s\n",
                         md_out.c_str());
            return 1;
        }
        capart::report::writeMarkdown(out, groups, cmp_or_null);
    } else {
        capart::report::writeMarkdown(std::cout, groups, cmp_or_null);
    }

    if (have_cmp) {
        std::fprintf(stderr, "bench_report: verdict %s (%s vs %s)\n",
                     capart::report::verdictName(cmp.verdict),
                     baseline->run.c_str(), current->run.c_str());
        if (gating && cmp.verdict == capart::report::Verdict::Fail)
            return 1;
    }
    return 0;
}
