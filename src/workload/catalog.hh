/**
 * @file
 * The 45-application workload catalog (§2.3).
 *
 * Every benchmark the paper runs is modeled here with parameters fitted
 * to its published behaviour: Table 1 (thread scalability), Table 2
 * (LLC utility and the >10-APKI set), Fig. 3 (prefetcher sensitivity)
 * and Fig. 4 (bandwidth sensitivity). The expected* fields carry the
 * paper's ground-truth classifications so tests and benches can check
 * that the models reproduce them.
 */

#ifndef CAPART_WORKLOAD_CATALOG_HH
#define CAPART_WORKLOAD_CATALOG_HH

#include <array>
#include <string_view>
#include <vector>

#include "workload/app_params.hh"

namespace capart
{

/** Static registry of the paper's 45 benchmarks. */
class Catalog
{
  public:
    /** All 45 applications, grouped by suite in the paper's order. */
    static const std::vector<AppParams> &all();

    /** Look up one application; fatal if the name is unknown. */
    static const AppParams &byName(std::string_view name);

    /** True if @p name exists in the catalog. */
    static bool contains(std::string_view name);

    /**
     * The six cluster representatives of Table 3 (closest to each
     * cluster centroid): C1=429.mcf, C2=459.GemsFDTD, C3=ferret,
     * C4=fop, C5=dedup, C6=batik.
     */
    static const std::array<std::string_view, 6> &clusterRepresentatives();

    /**
     * A deterministic @p n-app consolidation mix for the N-app benches:
     * interleaves cache-sensitive, streaming, and light applications so
     * every mix exercises all three LFOC classes. @p variant rotates
     * the starting point, giving distinct-but-reproducible mixes.
     */
    static std::vector<AppParams> nAppMix(std::size_t n,
                                          unsigned variant = 0);

    /** Expected number of catalog entries. */
    static constexpr std::size_t kNumApps = 45;
};

} // namespace capart

#endif // CAPART_WORKLOAD_CATALOG_HH
