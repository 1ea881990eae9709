/**
 * @file
 * Tests for the clustering module: normalization, single-linkage
 * agglomeration, dendrogram cuts, and centroid representatives (§3.5).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/characterization.hh"
#include "analysis/clustering.hh"

namespace capart
{
namespace
{

FeatureVector
fv(std::string name, std::vector<double> values)
{
    return FeatureVector{std::move(name), std::move(values)};
}

TEST(Normalize, MinMaxToUnitInterval)
{
    std::vector<FeatureVector> fs = {
        fv("a", {0.0, 10.0}),
        fv("b", {5.0, 20.0}),
        fv("c", {10.0, 30.0}),
    };
    normalizeFeatures(fs);
    EXPECT_DOUBLE_EQ(fs[0].values[0], 0.0);
    EXPECT_DOUBLE_EQ(fs[1].values[0], 0.5);
    EXPECT_DOUBLE_EQ(fs[2].values[0], 1.0);
    EXPECT_DOUBLE_EQ(fs[0].values[1], 0.0);
    EXPECT_DOUBLE_EQ(fs[2].values[1], 1.0);
}

TEST(Normalize, ConstantDimensionBecomesZero)
{
    std::vector<FeatureVector> fs = {fv("a", {7.0}), fv("b", {7.0})};
    normalizeFeatures(fs);
    EXPECT_DOUBLE_EQ(fs[0].values[0], 0.0);
    EXPECT_DOUBLE_EQ(fs[1].values[0], 0.0);
}

TEST(Euclidean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(euclidean(fv("a", {0, 0}), fv("b", {3, 4})), 5.0);
    EXPECT_DOUBLE_EQ(euclidean(fv("a", {1}), fv("b", {1})), 0.0);
}

TEST(SingleLinkage, TwoObviousClusters)
{
    // Two tight groups far apart.
    std::vector<FeatureVector> fs = {
        fv("a1", {0.0, 0.0}), fv("a2", {0.1, 0.0}), fv("a3", {0.0, 0.1}),
        fv("b1", {10.0, 10.0}), fv("b2", {10.1, 10.0}),
    };
    const Dendrogram d = singleLinkage(fs);
    EXPECT_EQ(d.numLeaves, 5u);
    EXPECT_EQ(d.merges.size(), 4u);
    // The last (largest-distance) merge joins the two groups.
    EXPECT_GT(d.merges.back().distance, 5.0);
    EXPECT_EQ(d.merges.back().size, 5u);

    const auto labels = clustersAtDistance(d, 1.0);
    EXPECT_EQ(numClusters(labels), 2u);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[0], labels[2]);
    EXPECT_EQ(labels[3], labels[4]);
    EXPECT_NE(labels[0], labels[3]);
}

TEST(SingleLinkage, ChainingBehaviour)
{
    // Single linkage famously chains: a line of points each 1 apart
    // forms ONE cluster at cutoff 1.5 even though the ends are far.
    std::vector<FeatureVector> fs;
    for (int i = 0; i < 6; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        fs.push_back(fv(name, {static_cast<double>(i), 0.0}));
    }
    const Dendrogram d = singleLinkage(fs);
    const auto labels = clustersAtDistance(d, 1.5);
    EXPECT_EQ(numClusters(labels), 1u);
}

TEST(SingleLinkage, CutAboveAllMergesIsOneCluster)
{
    std::vector<FeatureVector> fs = {fv("a", {0.0}), fv("b", {1.0}),
                                     fv("c", {5.0})};
    const Dendrogram d = singleLinkage(fs);
    EXPECT_EQ(numClusters(clustersAtDistance(d, 100.0)), 1u);
    EXPECT_EQ(numClusters(clustersAtDistance(d, 0.5)), 3u);
}

TEST(SingleLinkage, MergeDistancesNonDecreasing)
{
    std::vector<FeatureVector> fs;
    // A spread of points; single linkage merge distances must be
    // non-decreasing (monotone dendrogram).
    const double xs[] = {0.0, 0.3, 1.1, 2.0, 5.0, 5.2, 9.0};
    for (double x : xs)
        fs.push_back(fv("p", {x}));
    const Dendrogram d = singleLinkage(fs);
    for (std::size_t i = 1; i < d.merges.size(); ++i)
        EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance);
}

TEST(SingleLinkage, DegenerateInputs)
{
    std::vector<FeatureVector> none;
    EXPECT_EQ(singleLinkage(none).merges.size(), 0u);
    std::vector<FeatureVector> one = {fv("a", {1.0})};
    const Dendrogram d = singleLinkage(one);
    EXPECT_EQ(d.numLeaves, 1u);
    EXPECT_EQ(numClusters(clustersAtDistance(d, 1.0)), 1u);
}

TEST(Centroid, PicksMostCentralMember)
{
    std::vector<FeatureVector> fs = {
        fv("left", {0.0}), fv("mid", {1.0}), fv("right", {2.0}),
        fv("far", {50.0}),
    };
    const std::vector<unsigned> labels = {0, 0, 0, 1};
    EXPECT_EQ(centroidRepresentative(fs, labels, 0), 1u);
    EXPECT_EQ(centroidRepresentative(fs, labels, 1), 3u);
}

TEST(Characterization, NineteenFeatures)
{
    AppCharacterization c;
    c.name = "x";
    c.threadScaling.assign(7, 1.0);
    c.llcSensitivity.assign(10, 1.0);
    c.prefetchSensitivity = 0.9;
    c.bandwidthSensitivity = 1.4;
    const FeatureVector f = toFeatureVector(c);
    EXPECT_EQ(f.values.size(), kNumFeatures);
    EXPECT_EQ(f.values.size(), 19u);
    EXPECT_DOUBLE_EQ(f.values[17], 0.9);
    EXPECT_DOUBLE_EQ(f.values[18], 1.4);
}

TEST(Clustering, SeparatesScalableFromSerialProfiles)
{
    // Synthetic characterizations: scalable+streaming vs serial+cachey.
    std::vector<FeatureVector> fs;
    for (int k = 0; k < 3; ++k) {
        AppCharacterization c;
        c.name = "scalable" + std::to_string(k);
        c.threadScaling = {0.55, 0.4, 0.3, 0.25, 0.22, 0.2, 0.18};
        c.llcSensitivity.assign(10, 1.0);
        c.prefetchSensitivity = 0.8;
        c.bandwidthSensitivity = 1.5;
        fs.push_back(toFeatureVector(c));
    }
    for (int k = 0; k < 3; ++k) {
        AppCharacterization c;
        c.name = "serial" + std::to_string(k);
        c.threadScaling.assign(7, 1.0);
        c.llcSensitivity = {3.0, 2.5, 2.0, 1.7, 1.5, 1.35, 1.2,
                            1.1, 1.05, 1.0};
        c.prefetchSensitivity = 1.0;
        c.bandwidthSensitivity = 1.0;
        fs.push_back(toFeatureVector(c));
    }
    normalizeFeatures(fs);
    const Dendrogram d = singleLinkage(fs);
    const auto labels = clustersAtDistance(d, 0.9);
    EXPECT_EQ(numClusters(labels), 2u);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_NE(labels[0], labels[3]);
}

} // namespace
} // namespace capart
