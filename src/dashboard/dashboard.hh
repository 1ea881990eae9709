/**
 * @file
 * Self-contained HTML dashboard over attribution data.
 *
 * renderDashboardHtml() joins everything the observability layer
 * records about a run — per-owner attribution time series, the
 * partitioner decision journal, SLO evaluations, and the run ledger's
 * point records — into one HTML file with zero external
 * dependencies: all data is embedded as a JSON blob and all charts are
 * drawn client-side by inline vanilla JavaScript into inline SVG. The
 * file opens offline from a CI artifact tab or an `open` on a laptop,
 * years after the toolchain that made it is gone.
 *
 * Charts per experiment point (batch): stacked per-owner LLC
 * way-occupancy timeline with remask markers, per-owner stall
 * breakdown (share of cycles), per-owner power split (W), per-channel
 * DRAM bandwidth, and the SLO burn-rate strip. A table lists every
 * partitioner decision with its complete recorded inputs (the replay
 * contract of core/decision_journal.hh).
 *
 * The renderer is deterministic — no timestamps, no randomness — so
 * golden tests can diff its output byte-for-byte. Its data comes from
 * files alone (loadDashboardData; bench_dashboard is the CLI). With no
 * side files the page renders with `data-samples="0"`.
 */

#ifndef CAPART_DASHBOARD_DASHBOARD_HH
#define CAPART_DASHBOARD_DASHBOARD_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/run_ledger.hh"
#include "obs/timeseries.hh"

namespace capart::dashboard
{

/** Everything one dashboard page shows. */
struct DashboardData
{
    /** Page title (bench name, run id, ...). */
    std::string title;
    /** One batch per experiment point: samples plus journal. */
    std::vector<obs::AttributionBatch> batches;
    /** Ledger `point` records for the summary table (may be empty). */
    std::vector<obs::RunRecord> points;
};

/** Total attribution samples across @p data's batches. */
std::size_t sampleTotal(const DashboardData &data);

/**
 * Serialize @p data as the dashboard's embedded JSON blob (exposed for
 * tests; renderDashboardHtml() embeds exactly this).
 */
std::string dashboardJson(const DashboardData &data);

/** Write the complete self-contained HTML page. */
void renderDashboardHtml(std::ostream &os, const DashboardData &data);

/**
 * Build one page's data from files alone, as `bench_dashboard
 * --ledger=F --obs-dir=D` does: the `point` records of run @p run_id
 * ("" = the newest run in @p ledgers; @p bench, if set, keeps only that
 * bench's runs), the attribution side file each point links, and every
 * other side file in `D/attr/` (@p obs_dir may be ""). The title names
 * the run. Unreadable side files are skipped with a stderr note. Returns
 * false (after a stderr note) only when @p run_id names no run.
 */
bool loadDashboardData(const std::vector<std::string> &ledgers,
                       const std::string &obs_dir,
                       const std::string &run_id, const std::string &bench,
                       DashboardData *out);

} // namespace capart::dashboard

#endif // CAPART_DASHBOARD_DASHBOARD_HH
