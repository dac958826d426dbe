/** @file The Figures 7-9 hierarchy grid: bit-identical rows at any
 * worker count, and equal to the ratio-outer serial loop. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "hierarchy_sweep.h"
#include "util/thread_pool.h"

namespace dynex::bench
{
namespace
{

/** Pins a small DYNEX_REFS and restores the environment and the
 * automatic thread configuration on exit. */
struct SmallGridGuard
{
    SmallGridGuard() { ::setenv("DYNEX_REFS", "6000", 1); }
    ~SmallGridGuard()
    {
        ::unsetenv("DYNEX_REFS");
        ThreadPool::setConfiguredWorkers(0);
        Workloads::dropCache();
    }
};

/** The grid as a serial ratio-outer, benchmark-inner loop. */
std::vector<HierarchyRow>
ratioOuterSweep()
{
    const auto names = suiteNames();
    const Count budget = refs();
    std::vector<HierarchyRow> rows;

    for (const std::uint64_t ratio : paperL2Ratios()) {
        HierarchyRow row;
        row.ratio = ratio;

        for (const auto &name : names) {
            const auto trace = Workloads::instructions(name, budget);

            auto run = [&](bool dynex_l1, HitLastPolicy policy) {
                HierarchyConfig config;
                config.l1 =
                    CacheGeometry::directMapped(kCacheBytes, kWordLine);
                config.l2 = CacheGeometry::directMapped(
                    kCacheBytes * ratio, kWordLine);
                config.l1DynamicExclusion = dynex_l1;
                config.policy = policy;
                config.hashedEntriesPerLine =
                    static_cast<std::uint32_t>(ratio);
                TwoLevelCache hierarchy(config);
                return runTrace(hierarchy, *trace);
            };

            const auto dm = run(false, HitLastPolicy::Ideal);
            const auto hit = run(true, HitLastPolicy::AssumeHit);
            const auto miss = run(true, HitLastPolicy::AssumeMiss);
            const auto hashed = run(true, HitLastPolicy::Hashed);
            const auto ideal = run(true, HitLastPolicy::Ideal);

            row.l1Dm += 100.0 * dm.l1.missRate();
            row.l1AssumeHit += 100.0 * hit.l1.missRate();
            row.l1AssumeMiss += 100.0 * miss.l1.missRate();
            row.l1Hashed += 100.0 * hashed.l1.missRate();
            row.l1Ideal += 100.0 * ideal.l1.missRate();

            row.l2Dm += 100.0 * dm.l2GlobalMissRate();
            row.l2AssumeHit += 100.0 * hit.l2GlobalMissRate();
            row.l2AssumeMiss += 100.0 * miss.l2GlobalMissRate();
            row.l2Hashed += 100.0 * hashed.l2GlobalMissRate();
            row.l2Ideal += 100.0 * ideal.l2GlobalMissRate();
        }

        const auto n = static_cast<double>(names.size());
        row.l1Dm /= n;
        row.l1AssumeHit /= n;
        row.l1AssumeMiss /= n;
        row.l1Hashed /= n;
        row.l1Ideal /= n;
        row.l2Dm /= n;
        row.l2AssumeHit /= n;
        row.l2AssumeMiss /= n;
        row.l2Hashed /= n;
        row.l2Ideal /= n;
        rows.push_back(row);
    }
    return rows;
}

void
expectRowsIdentical(const std::vector<HierarchyRow> &actual,
                    const std::vector<HierarchyRow> &expected)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t r = 0; r < actual.size(); ++r) {
        const HierarchyRow &a = actual[r];
        const HierarchyRow &e = expected[r];
        SCOPED_TRACE("row " + std::to_string(r));
        // Exact: the reduction must keep every double's bits.
        EXPECT_EQ(a.ratio, e.ratio);
        EXPECT_EQ(a.l1Dm, e.l1Dm);
        EXPECT_EQ(a.l1AssumeHit, e.l1AssumeHit);
        EXPECT_EQ(a.l1AssumeMiss, e.l1AssumeMiss);
        EXPECT_EQ(a.l1Hashed, e.l1Hashed);
        EXPECT_EQ(a.l1Ideal, e.l1Ideal);
        EXPECT_EQ(a.l2Dm, e.l2Dm);
        EXPECT_EQ(a.l2AssumeHit, e.l2AssumeHit);
        EXPECT_EQ(a.l2AssumeMiss, e.l2AssumeMiss);
        EXPECT_EQ(a.l2Hashed, e.l2Hashed);
        EXPECT_EQ(a.l2Ideal, e.l2Ideal);
    }
}

TEST(HierarchySweep, RowsAreBitIdenticalAtAnyWorkerCount)
{
    SmallGridGuard guard;
    ThreadPool::setConfiguredWorkers(1);
    const auto reference = ratioOuterSweep();
    ASSERT_EQ(reference.size(), paperL2Ratios().size());

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " workers");
        ThreadPool::setConfiguredWorkers(threads);
        Workloads::dropCache();
        expectRowsIdentical(hierarchySweep(), reference);
    }
}

} // namespace
} // namespace dynex::bench
