/**
 * @file
 * Figure 5 + Table 3: hierarchical single-linkage clustering of all
 * applications on the 19-feature characterization vectors (7 thread-
 * scaling + 10 LLC-size + prefetch + bandwidth), the dendrogram merge
 * sequence, the flat clusters at linkage distance 0.9, and each
 * cluster's centroid representative.
 */

#include <iostream>

#include "analysis/characterization.hh"
#include "analysis/clustering.hh"
#include "bench_common.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.06,
        "Fig. 5 / Table 3: clustering on 19-feature characterization");

    std::vector<exec::ExperimentSpec> specs;
    for (const auto &app : Catalog::all()) {
        addThreadSweep(specs, app.name, opts.scale);
        addWaySweep(specs, app.name, opts.scale);
        addPrefetchSweep(specs, app.name, opts.scale);
        if (app.name != "stream_uncached")
            addHogSweep(specs, app.name, opts.scale);
    }
    // All four measurements list the 4-thread, 12-way, prefetch-on solo;
    // SweepRunner runs it once per app.
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    std::vector<FeatureVector> features;
    std::size_t next = 0;
    for (const auto &app : Catalog::all()) {
        AppCharacterization c;
        c.name = app.name;
        const std::vector<double> scal = takeTimes(res, next, 8);
        for (unsigned n = 1; n < 8; ++n)
            c.threadScaling.push_back(scal[n] / scal[0]);
        const std::vector<double> llc = takeTimes(res, next, 12);
        for (unsigned w = 2; w <= 11; ++w)
            c.llcSensitivity.push_back(llc[w] / llc[11]);
        const std::vector<double> on_off = takeTimes(res, next, 2);
        c.prefetchSensitivity = on_off[0] / on_off[1];
        c.bandwidthSensitivity = 1.0;
        if (app.name != "stream_uncached") {
            const std::vector<double> hog_solo = takeTimes(res, next, 2);
            c.bandwidthSensitivity = hog_solo[0] / hog_solo[1];
        }
        features.push_back(toFeatureVector(c));
    }
    normalizeFeatures(features);

    const Dendrogram dendro = singleLinkage(features);

    Table merges({"step", "a", "b", "distance", "size"});
    for (std::size_t k = 0; k < dendro.merges.size(); ++k) {
        const Merge &m = dendro.merges[k];
        auto name = [&](std::size_t id) {
            return id < features.size() ? features[id].name
                                        : "cluster#" + std::to_string(id);
        };
        merges.addRow({std::to_string(k), name(m.a), name(m.b),
                       Table::num(m.distance, 3),
                       std::to_string(m.size)});
    }
    emit(opts, "Figure 5: single-linkage dendrogram (merge sequence)",
         merges);

    const std::vector<unsigned> labels =
        clustersAtDistance(dendro, 0.9);
    const unsigned k = numClusters(labels);

    Table clusters({"cluster", "members", "representative(centroid)"});
    for (unsigned c = 0; c < k; ++c) {
        std::string members;
        for (std::size_t i = 0; i < labels.size(); ++i) {
            if (labels[i] == c) {
                if (!members.empty())
                    members += " ";
                members += features[i].name;
            }
        }
        const std::size_t rep =
            centroidRepresentative(features, labels, c);
        clusters.addRow({std::to_string(c), members, features[rep].name});
    }
    emit(opts, "Table 3: clusters at linkage distance 0.9", clusters);
    std::cout << "\nClusters found: " << k
              << " (paper: 6 named clusters plus singletons)\n"
              << "Paper's representatives: 429.mcf 459.GemsFDTD ferret "
                 "fop dedup batik\n";
    return 0;
}
