/** @file Unit tests of the trace analysis helpers. */

#include <gtest/gtest.h>

#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "sim/analysis.h"
#include "../test_helpers.h"

namespace dynex
{
namespace
{

using test::repeat;

TEST(ConflictCensus, CountsDegreesPerSet)
{
    // 64B/4B cache = 16 sets. Put 1 block in set 1, 2 blocks in set
    // 2, 3 blocks in set 3.
    Trace trace("census");
    trace.append(ifetch(0x1000 + 4));           // set 1
    trace.append(ifetch(0x1000 + 8));           // set 2
    trace.append(ifetch(0x1000 + 8 + 64));      // set 2, block 2
    trace.append(ifetch(0x1000 + 12));          // set 3
    trace.append(ifetch(0x1000 + 12 + 64));     // set 3, block 2
    trace.append(ifetch(0x1000 + 12 + 128));    // set 3, block 3

    const auto geometry = CacheGeometry::directMapped(64, 4);
    const ConflictCensus census = conflictCensus(trace, geometry);
    EXPECT_EQ(census.totalSets, 16u);
    EXPECT_EQ(census.setsWithDegree[0], 13u);
    EXPECT_EQ(census.unconflicted(), 1u);
    EXPECT_EQ(census.twoWay(), 1u);
    EXPECT_EQ(census.multiWay(), 1u);
    EXPECT_NE(census.toString().find("1 two-way"), std::string::npos);
}

TEST(ConflictCensus, ClampsHighDegrees)
{
    Trace trace("deep");
    for (int k = 0; k < 20; ++k)
        trace.append(ifetch(0x1000 + 64 * static_cast<Addr>(k)));
    const auto census =
        conflictCensus(trace, CacheGeometry::directMapped(64, 4), 4);
    EXPECT_EQ(census.setsWithDegree[4], 1u) << "20-way clamps to 4";
}

TEST(ReuseDistance, ShortLoopsGiveShortDistances)
{
    // (ab)^n: between two a's exactly one other block (b) appears.
    const Trace trace = Trace::fromPattern(repeat("ab", 20), 0x1000, 64);
    const auto histogram = reuseDistanceHistogram(trace, 4);
    EXPECT_EQ(histogram.count, 38u) << "each revisit records once";
    EXPECT_EQ(histogram.buckets[0], 38u) << "distance 1 for everything";
}

TEST(ReuseDistance, PhasePatternsGiveLongDistances)
{
    // a b^32 a: a's revisit sees 32 distinct blocks in between.
    Trace trace("phases");
    trace.append(ifetch(0x1000));
    for (int i = 0; i < 32; ++i)
        trace.append(ifetch(0x2000 + 64 * static_cast<Addr>(i)));
    trace.append(ifetch(0x1000));
    const auto histogram = reuseDistanceHistogram(trace, 4);
    EXPECT_EQ(histogram.buckets[5], 1u) << "distance 32 lands in [32,63]";
}

TEST(ReuseDistance, ConsecutiveSameBlockReferencesCollapse)
{
    const Trace trace = Trace::fromPattern("aaaa", 0x1000, 64);
    const auto histogram = reuseDistanceHistogram(trace, 4);
    EXPECT_EQ(histogram.count, 0u)
        << "runs are one line reference; no revisit recorded";
}

TEST(WarmSplit, PartsSumToTheTotal)
{
    DynamicExclusionCache cache(CacheGeometry::directMapped(64, 4));
    const Trace trace =
        Trace::fromPattern(repeat("aabba", 100), 0x1000, 64);
    const WarmSplit split = runTraceSplit(cache, trace, 0.3);
    const auto &total = cache.stats();
    EXPECT_EQ(split.warmup.accesses + split.steady.accesses,
              total.accesses);
    EXPECT_EQ(split.warmup.misses + split.steady.misses, total.misses);
    EXPECT_EQ(split.warmup.bypasses + split.steady.bypasses,
              total.bypasses);
    EXPECT_EQ(split.warmup.accesses, trace.size() * 3 / 10);
}

TEST(WarmSplit, SteadyStateMissRateDropsAfterTraining)
{
    // The FSM's training misses land in the warmup window; steady
    // state is strictly better on a stationary pattern.
    DynamicExclusionCache cache(CacheGeometry::directMapped(64, 4));
    const Trace trace =
        Trace::fromPattern(repeat("ab", 200), 0x1000, 64);
    const WarmSplit split = runTraceSplit(cache, trace, 0.1);
    EXPECT_LT(split.steady.missRate(), split.warmup.missRate());
    EXPECT_NEAR(split.steady.missRate(), 0.5, 0.02)
        << "steady (ab)^n under dynamic exclusion halves the misses";
}

TEST(WarmSplit, ZeroWarmupPutsEverythingInSteady)
{
    DirectMappedCache cache(CacheGeometry::directMapped(64, 4));
    const Trace trace = Trace::fromPattern("abab", 0x1000, 64);
    const WarmSplit split = runTraceSplit(cache, trace, 0.0);
    EXPECT_EQ(split.warmup.accesses, 0u);
    EXPECT_EQ(split.steady.accesses, 4u);
}

} // namespace
} // namespace dynex
