/**
 * @file
 * Unit tests for the common module: types, RNG, units.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace capart
{
namespace
{

TEST(Types, LineAddrStripsOffset)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 1u);
    EXPECT_EQ(lineAddr(128 + 17), 2u);
}

TEST(Units, BinarySizes)
{
    EXPECT_EQ(kib(1), 1024u);
    EXPECT_EQ(mib(1), 1024u * 1024u);
    EXPECT_EQ(gib(2), 2ull * 1024 * 1024 * 1024);
    EXPECT_EQ(mib(6) / (12 * kLineBytes), 8192u); // the paper's LLC sets
}

TEST(Units, TimeAndRate)
{
    EXPECT_DOUBLE_EQ(msec(100), 0.1);
    EXPECT_DOUBLE_EQ(usec(25), 25e-6);
    EXPECT_DOUBLE_EQ(ghz(3.4), 3.4e9);
    EXPECT_DOUBLE_EQ(gbps(21), 21e9);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000000ull}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Json, ParseDumpRoundTrip)
{
    const std::string text =
        "{\"a\":1.5,\"b\":\"x\\\"y\",\"c\":[true,false,null],"
        "\"d\":{\"nested\":-2}}";
    const auto doc = Json::parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->at("a").asNum(), 1.5);
    EXPECT_EQ(doc->at("b").asStr(), "x\"y");
    ASSERT_EQ(doc->at("c").arr.size(), 3u);
    EXPECT_TRUE(doc->at("c").arr[0].asBool());
    EXPECT_TRUE(doc->at("c").arr[2].isNull());
    EXPECT_DOUBLE_EQ(doc->at("d").at("nested").asNum(), -2.0);
    // dump() of a parsed document must parse back to the same values.
    const auto again = Json::parse(doc->dump());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dump(), doc->dump());
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
    EXPECT_FALSE(Json::parse("{} trailing").has_value())
        << "trailing garbage must fail, not be ignored";
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(Json, AbsentKeysChainToNullWithFallbacks)
{
    const auto doc = Json::parse("{\"a\":{\"b\":3}}");
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->at("missing").isNull());
    EXPECT_TRUE(doc->at("missing").at("deeper").isNull());
    EXPECT_DOUBLE_EQ(doc->at("missing").asNum(7.0), 7.0);
    EXPECT_EQ(doc->at("missing").asStr("dflt"), "dflt");
}

TEST(Logging, SinkWritesParsableJsonlAndFiltersByLevel)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart-log-test.jsonl")
            .string();
    std::remove(path.c_str());

    EXPECT_FALSE(logEnabled()) << "no sink: disabled";
    setLogSink(path);
    EXPECT_TRUE(logEnabled());

    logEvent(LogLevel::Info, "unit.test",
             {{"t_s", 1.25},
              {"kind", "breach"},
              {"count", std::uint64_t{0xffffffffffffffffULL}},
              {"ok", true}});
    logEvent(LogLevel::Warn, "unit.warn");
    logEvent(LogLevel::Error, "unit.error");
    setLogSink(""); // close and flush
    EXPECT_FALSE(logEnabled());

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u) << "every event is written";

    const auto doc = Json::parse(lines[0]);
    ASSERT_TRUE(doc.has_value()) << "log line must be valid JSON";
    EXPECT_EQ(doc->at("level").asStr(), "info");
    EXPECT_EQ(doc->at("event").asStr(), "unit.test");
    EXPECT_DOUBLE_EQ(doc->at("t_s").asNum(), 1.25);
    EXPECT_EQ(doc->at("kind").asStr(), "breach");
    EXPECT_NE(lines[0].find("\"count\":18446744073709551615"),
              std::string::npos)
        << "u64 fields print all 64 bits, not a rounded double";
    EXPECT_TRUE(doc->at("ok").asBool());
    EXPECT_GT(doc->at("ts_ms").asNum(), 0.0);
    // Each line keeps its level as a field.
    EXPECT_EQ(Json::parse(lines[1])->at("level").asStr(), "warn");
    EXPECT_EQ(Json::parse(lines[2])->at("level").asStr(), "error");

    std::remove(path.c_str());
}

} // namespace
} // namespace capart
