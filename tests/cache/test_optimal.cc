/**
 * @file
 * Tests of the Belady-with-bypass optimal direct-mapped cache,
 * including an exhaustive dynamic-programming cross-check on random
 * single-set traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "cache/optimal.h"
#include "sim/kernel.h"
#include "trace/next_use.h"
#include "util/rng.h"
#include "../test_helpers.h"

namespace dynex
{
namespace
{

constexpr std::uint32_t kLine = 4;

int
optimalMisses(const Trace &trace, std::uint64_t cache_bytes)
{
    const NextUseIndex index(trace, kLine);
    OptimalDirectMappedCache cache(
        CacheGeometry::directMapped(cache_bytes, kLine), index);
    for (std::size_t i = 0; i < trace.size(); ++i)
        cache.access(trace[i], i);
    return static_cast<int>(cache.stats().misses);
}

/**
 * Exhaustive minimum-miss computation for a single-set direct-mapped
 * cache with bypass: memoized recursion over (position, resident).
 */
class BruteForce
{
  public:
    explicit BruteForce(std::vector<int> blocks)
        : refs(std::move(blocks))
    {}

    int
    solve()
    {
        return best(0, -1);
    }

  private:
    int
    best(std::size_t pos, int resident)
    {
        if (pos == refs.size())
            return 0;
        const auto key = std::make_pair(pos, resident);
        if (const auto it = memo.find(key); it != memo.end())
            return it->second;

        int result;
        if (refs[pos] == resident) {
            result = best(pos + 1, resident);
        } else {
            const int keep = best(pos + 1, resident);   // bypass
            const int take = best(pos + 1, refs[pos]);  // allocate
            result = 1 + std::min(keep, take);
        }
        memo.emplace(key, result);
        return result;
    }

    std::vector<int> refs;
    std::map<std::pair<std::size_t, int>, int> memo;
};

Trace
traceFromBlocks(const std::vector<int> &blocks, Addr stride)
{
    Trace trace("blocks");
    for (int b : blocks)
        trace.append(ifetch(0x1000 + static_cast<Addr>(b) * stride));
    return trace;
}

TEST(OptimalCache, EmptyTraceHasNoMisses)
{
    Trace trace("empty");
    const NextUseIndex index(trace, kLine);
    OptimalDirectMappedCache cache(CacheGeometry::directMapped(64, kLine),
                                   index);
    EXPECT_EQ(cache.stats().accesses, 0u);
}

TEST(OptimalCache, SingleBlockAlwaysHitsAfterColdMiss)
{
    const Trace trace = Trace::fromPattern("aaaaaa", 0x1000, 64);
    const NextUseIndex index(trace, kLine);
    OptimalDirectMappedCache cache(CacheGeometry::directMapped(64, kLine),
                                   index);
    for (std::size_t i = 0; i < trace.size(); ++i)
        cache.access(trace[i], i);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().coldMisses, 1u);
}

TEST(OptimalCache, KeepsTheBlockNeededSooner)
{
    // a b a ... : on b's miss, a is needed sooner, so b is bypassed.
    const Trace trace = Trace::fromPattern("abaaa", 0x1000, 64);
    const NextUseIndex index(trace, kLine);
    OptimalDirectMappedCache cache(CacheGeometry::directMapped(64, kLine),
                                   index);
    std::vector<bool> hits;
    for (std::size_t i = 0; i < trace.size(); ++i)
        hits.push_back(cache.access(trace[i], i).hit);
    EXPECT_EQ(hits, (std::vector<bool>{false, false, true, true, true}));
    EXPECT_EQ(cache.stats().bypasses, 1u);
}

TEST(OptimalCache, MatchesBruteForceOnHandPatterns)
{
    const Addr stride = 64;
    for (const char *pattern :
         {"abab", "aabba", "abcabc", "aaabbbccc", "abacabad",
          "abbbbbba", "abcdabcdabcd"}) {
        const Trace trace = Trace::fromPattern(pattern, 0x1000, stride);
        std::vector<int> blocks;
        for (const auto &ref : trace)
            blocks.push_back(static_cast<int>((ref.addr - 0x1000) / stride));
        BruteForce brute(blocks);
        EXPECT_EQ(optimalMisses(trace, 64), brute.solve())
            << "pattern " << pattern;
    }
}

class OptimalRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(OptimalRandomTest, MatchesBruteForceOnRandomSingleSetTraces)
{
    Rng rng(0xbe1ad00 + static_cast<std::uint64_t>(GetParam()));
    const int length = 3 + static_cast<int>(rng.nextBelow(60));
    const int universe = 2 + static_cast<int>(rng.nextBelow(6));

    std::vector<int> blocks;
    for (int i = 0; i < length; ++i)
        blocks.push_back(static_cast<int>(rng.nextBelow(universe)));

    const Trace trace = traceFromBlocks(blocks, 64);
    BruteForce brute(blocks);
    EXPECT_EQ(optimalMisses(trace, 64), brute.solve());

    // The replay kernel's optimal lane on the same trace with repeats
    // collapsed: with no two consecutive references to one block, its
    // last-line register never serves a hit, and the run-start oracle
    // is the per-reference one.
    std::vector<int> runs;
    for (const int block : blocks)
        if (runs.empty() || runs.back() != block)
            runs.push_back(block);
    const Trace run_trace = traceFromBlocks(runs, 64);
    const NextUseIndex index(run_trace, kLine, NextUseMode::RunStart);
    const TriadLegs legs = replayTriads(run_trace, index, {64}, kLine, {},
                                        {}, ReplayEngine::Kernel);
    ASSERT_TRUE(legs.allOk());
    EXPECT_EQ(legs.triads[0].opt.misses,
              static_cast<std::uint64_t>(BruteForce(runs).solve()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalRandomTest,
                         ::testing::Range(0, 40));

TEST(OptimalCache, MultiSetTracesDecomposePerSet)
{
    // Blocks in different sets never interact: interleaving two
    // independent single-set patterns gives the sum of their misses.
    const std::uint64_t cache_bytes = 128; // 32 sets of 4B
    Trace combined("combined");
    // Set 0: a b a b (stride = cache size) -> optimal misses 3 (a, b
    // bypassed twice? computed by brute force below).
    std::vector<int> set0 = {0, 1, 0, 1};
    std::vector<int> set1 = {2, 2, 2, 2};
    for (std::size_t i = 0; i < set0.size(); ++i) {
        combined.append(
            ifetch(0x1000 + static_cast<Addr>(set0[i]) * cache_bytes));
        combined.append(ifetch(0x1000 + 4 +
                               static_cast<Addr>(set1[i]) * cache_bytes));
    }
    BruteForce brute0(set0);
    BruteForce brute1(set1);
    EXPECT_EQ(optimalMisses(combined, cache_bytes),
              brute0.solve() + brute1.solve());
}

TEST(OptimalCache, RunStartModeWithLastLineNeverWorseThanPerReference)
{
    // The last-line register is extra storage, so the run-collapsed
    // optimal (RunStart + last line) can only match or beat the
    // per-reference optimal without it.
    Rng rng(0x5eed);
    Trace trace("runs");
    for (int i = 0; i < 400; ++i) {
        const Addr block = rng.nextBelow(6);
        const int run = 1 + static_cast<int>(rng.nextBelow(4));
        for (int j = 0; j < run; ++j)
            trace.append(ifetch(0x1000 + block * 64 +
                                4 * static_cast<Addr>(j % 2)));
    }

    const NextUseIndex per_ref(trace, 16, NextUseMode::AnyReference);
    OptimalDirectMappedCache a(CacheGeometry::directMapped(64, 16),
                               per_ref);
    const NextUseIndex run_start(trace, 16, NextUseMode::RunStart);
    OptimalDirectMappedCache b(CacheGeometry::directMapped(64, 16),
                               run_start, /*use_last_line=*/true);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        a.access(trace[i], i);
        b.access(trace[i], i);
    }
    EXPECT_LE(b.stats().misses, a.stats().misses);
}

// ---- Set-associative Belady ----------------------------------------

/** Exhaustive minimum for a single 2-way set with bypass. */
class BruteForce2Way
{
  public:
    explicit BruteForce2Way(std::vector<int> blocks)
        : refs(std::move(blocks))
    {}

    int
    solve()
    {
        return best(0, -1, -1);
    }

  private:
    int
    best(std::size_t pos, int a, int b)
    {
        if (pos == refs.size())
            return 0;
        if (a > b)
            std::swap(a, b); // canonical order for memoization
        const auto key = std::make_tuple(pos, a, b);
        if (const auto it = memo.find(key); it != memo.end())
            return it->second;

        int result;
        const int x = refs[pos];
        if (x == a || x == b) {
            result = best(pos + 1, a, b);
        } else {
            const int keep = best(pos + 1, a, b);      // bypass
            const int take_a = best(pos + 1, x, b);    // evict a
            const int take_b = best(pos + 1, a, x);    // evict b
            result = 1 + std::min({keep, take_a, take_b});
        }
        memo.emplace(key, result);
        return result;
    }

    std::vector<int> refs;
    std::map<std::tuple<std::size_t, int, int>, int> memo;
};

class OptimalAssocRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(OptimalAssocRandomTest, TwoWayMatchesBruteForce)
{
    Rng rng(0x2a55 + static_cast<std::uint64_t>(GetParam()));
    const int length = 4 + static_cast<int>(rng.nextBelow(40));
    const int universe = 3 + static_cast<int>(rng.nextBelow(4));

    std::vector<int> blocks;
    for (int i = 0; i < length; ++i)
        blocks.push_back(static_cast<int>(rng.nextBelow(universe)));
    const Trace trace = traceFromBlocks(blocks, 8);

    const NextUseIndex index(trace, kLine);
    OptimalSetAssocCache cache(CacheGeometry::setAssociative(8, 4, 2),
                               index);
    for (std::size_t i = 0; i < trace.size(); ++i)
        cache.access(trace[i], i);

    BruteForce2Way brute(blocks);
    EXPECT_EQ(static_cast<int>(cache.stats().misses), brute.solve());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalAssocRandomTest,
                         ::testing::Range(0, 25));

TEST(OptimalSetAssoc, OneWayMatchesDirectMappedOptimal)
{
    Rng rng(0x77);
    Trace trace("r");
    for (int i = 0; i < 3000; ++i)
        trace.append(ifetch(0x1000 + 4 * rng.nextBelow(128)));
    const NextUseIndex index(trace, kLine);
    OptimalDirectMappedCache dm_opt(CacheGeometry::directMapped(128, 4),
                                    index);
    OptimalSetAssocCache sa_opt(CacheGeometry::setAssociative(128, 4, 1),
                                index);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        dm_opt.access(trace[i], i);
        sa_opt.access(trace[i], i);
    }
    EXPECT_EQ(dm_opt.stats().misses, sa_opt.stats().misses);
}

TEST(OptimalSetAssoc, MoreWaysNeverHurt)
{
    Rng rng(0x99);
    Trace trace("r");
    for (int i = 0; i < 5000; ++i)
        trace.append(ifetch(0x1000 + 4 * rng.nextBelow(256)));
    Count prev = ~Count{0};
    for (const std::uint32_t ways : {1u, 2u, 4u}) {
        const NextUseIndex index(trace, kLine);
        OptimalSetAssocCache cache(
            CacheGeometry::setAssociative(256, 4, ways), index);
        for (std::size_t i = 0; i < trace.size(); ++i)
            cache.access(trace[i], i);
        EXPECT_LE(cache.stats().misses, prev) << ways << " ways";
        prev = cache.stats().misses;
    }
}

TEST(OptimalCache, ResetClearsState)
{
    const Trace trace = Trace::fromPattern("abab", 0x1000, 64);
    const NextUseIndex index(trace, kLine);
    OptimalDirectMappedCache cache(CacheGeometry::directMapped(64, kLine),
                                   index);
    for (std::size_t i = 0; i < trace.size(); ++i)
        cache.access(trace[i], i);
    const auto first = cache.stats().misses;
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    for (std::size_t i = 0; i < trace.size(); ++i)
        cache.access(trace[i], i);
    EXPECT_EQ(cache.stats().misses, first);
}

} // namespace
} // namespace dynex
