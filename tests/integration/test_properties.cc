/**
 * @file
 * Property-based tests over randomized traces: ordering invariants
 * between the cache models, determinism, and statistics consistency.
 */

#include <gtest/gtest.h>

#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/optimal.h"
#include "cache/set_assoc.h"
#include "cache/victim.h"
#include "sim/kernel.h"
#include "trace/next_use.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

/** A random loopy trace: random walks with repeated segments so every
 * model has reuse to exploit. */
Trace
loopyTrace(std::uint64_t seed, int length, int footprint_words)
{
    Rng rng(seed);
    Trace trace("loopy");
    while (static_cast<int>(trace.size()) < length) {
        const Addr base =
            0x1000 + 4 * rng.nextBelow(footprint_words);
        const int body =
            1 + static_cast<int>(rng.nextBelow(12));
        const int iterations =
            1 + static_cast<int>(rng.nextBelow(8));
        for (int it = 0; it < iterations; ++it)
            for (int i = 0; i < body; ++i)
                trace.append(ifetch(base + 4 * static_cast<Addr>(i)));
    }
    return trace;
}

class TraceProperty : public ::testing::TestWithParam<int>
{
  protected:
    Trace trace = loopyTrace(0xfeed + GetParam(), 30000,
                             64 + 32 * GetParam());
};

TEST_P(TraceProperty, OptimalLowerBoundsEveryDirectMappedPolicy)
{
    const CacheGeometry geo = CacheGeometry::directMapped(256, 4);
    const NextUseIndex index(trace, 4);

    OptimalDirectMappedCache opt(geo, index);
    DirectMappedCache dm(geo);
    DynamicExclusionCache de(geo);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        opt.access(trace[i], i);
        dm.access(trace[i], i);
        de.access(trace[i], i);
    }
    EXPECT_LE(opt.stats().misses, dm.stats().misses);
    EXPECT_LE(opt.stats().misses, de.stats().misses);

    // The kernel's legs, whose optimal lane always runs the last-line
    // register over a RunStart oracle.
    const NextUseIndex runs(trace, 4, NextUseMode::RunStart);
    const std::vector<std::uint64_t> sizes = {64, 256, 1024, 4096};
    const auto legs = replayTriadKernel(trace, runs, sizes, 4);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        EXPECT_LE(legs[s].opt.misses, legs[s].dm.misses) << sizes[s];
        EXPECT_LE(legs[s].opt.misses, legs[s].de.misses) << sizes[s];
    }
}

/** The identities of a direct-mapped policy that may bypass: every
 * miss either fills or bypasses, and every fill but a cold one evicts. */
void
expectExactIdentities(const CacheStats &s, std::uint64_t refs,
                      const std::string &label)
{
    EXPECT_EQ(s.accesses, refs) << label;
    EXPECT_EQ(s.hits + s.misses, s.accesses) << label;
    EXPECT_EQ(s.fills + s.bypasses, s.misses) << label;
    EXPECT_EQ(s.evictions, s.fills - s.coldMisses) << label;
}

TEST_P(TraceProperty, StatsAreInternallyConsistent)
{
    const CacheGeometry geo = CacheGeometry::directMapped(512, 16);
    const NextUseIndex index(trace, 16);
    DirectMappedCache dm(geo);
    DynamicExclusionCache de(geo);
    OptimalDirectMappedCache opt(geo, index);
    VictimCache victim(geo, 4);
    SetAssocCache sa(CacheGeometry::setAssociative(512, 16, 4));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        dm.access(trace[i], i);
        de.access(trace[i], i);
        opt.access(trace[i], i);
        victim.access(trace[i], i);
        sa.access(trace[i], i);
    }
    for (const CacheModel *cache :
         {static_cast<const CacheModel *>(&dm),
          static_cast<const CacheModel *>(&de),
          static_cast<const CacheModel *>(&opt)})
        expectExactIdentities(cache->stats(), trace.size(),
                              cache->name());
    for (const CacheModel *cache :
         {static_cast<const CacheModel *>(&victim),
          static_cast<const CacheModel *>(&sa)}) {
        const auto &s = cache->stats();
        EXPECT_EQ(s.accesses, trace.size()) << cache->name();
        EXPECT_EQ(s.hits + s.misses, s.accesses) << cache->name();
        EXPECT_LE(s.bypasses + s.fills, s.misses + 1) << cache->name();
    }

    // Every leg of the kernel, with and without the last-line buffer.
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    for (const std::uint32_t line : {4u, 16u}) {
        const NextUseIndex runs(trace, line, NextUseMode::RunStart);
        DynamicExclusionConfig config;
        config.useLastLine = line > 4;
        const auto legs =
            replayTriadKernel(trace, runs, sizes, line, config);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const std::string label = "kernel line " +
                                      std::to_string(line) + " size " +
                                      std::to_string(sizes[s]);
            expectExactIdentities(legs[s].dm, trace.size(),
                                  "dm " + label);
            expectExactIdentities(legs[s].de, trace.size(),
                                  "de " + label);
            expectExactIdentities(legs[s].opt, trace.size(),
                                  "opt " + label);
        }
    }
}

TEST_P(TraceProperty, ModelsAreDeterministic)
{
    const CacheGeometry geo = CacheGeometry::directMapped(256, 16);
    Count first = 0;
    for (int run = 0; run < 2; ++run) {
        DynamicExclusionCache de(geo);
        for (std::size_t i = 0; i < trace.size(); ++i)
            de.access(trace[i], i);
        if (run == 0)
            first = de.stats().misses;
        else
            EXPECT_EQ(de.stats().misses, first);
    }
}

TEST_P(TraceProperty, FullyAssociativeSeesOnlyColdMissesWhenFitting)
{
    // When the whole footprint fits, a fully-associative LRU cache
    // misses exactly once per block, and no direct-mapped policy can
    // beat that.
    const Trace small = loopyTrace(0xabc + GetParam(), 20000, 64);
    SetAssocCache fa(CacheGeometry::fullyAssociative(512, 4));
    DirectMappedCache dm(CacheGeometry::directMapped(512, 4));
    for (std::size_t i = 0; i < small.size(); ++i) {
        fa.access(small[i], i);
        dm.access(small[i], i);
    }
    EXPECT_EQ(fa.stats().misses, fa.stats().coldMisses);
    EXPECT_LE(fa.stats().misses, dm.stats().misses);
}

TEST_P(TraceProperty, BiggerDynamicExclusionCacheNeverMuchWorse)
{
    DynamicExclusionCache small(CacheGeometry::directMapped(128, 4));
    DynamicExclusionCache big(CacheGeometry::directMapped(1024, 4));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        small.access(trace[i], i);
        big.access(trace[i], i);
    }
    EXPECT_LE(big.stats().misses,
              small.stats().misses + trace.size() / 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty, ::testing::Range(0, 8));

} // namespace
} // namespace dynex
