/** @file TwoLevelCache on its zero-page L2 array: reuse after reset(),
 * fresh instances after unmapping, and the array type itself. Runs
 * under the asan-ubsan preset (label "sanitize"). */

#include <gtest/gtest.h>

#include <string>

#include "cache/hierarchy.h"
#include "hierarchy_sweep.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/zero_pages.h"

namespace dynex
{
namespace
{

using bench::hierarchyConfig;
using bench::HierarchyLeg;
using bench::kHierarchyLegs;

/** Loops over a hot region plus scattered excursions across 8MB, so
 * both levels conflict and the largest L2 touches far-apart sets. */
Trace
excursionTrace()
{
    Rng rng(1992);
    Trace trace("excursions");
    for (int i = 0; i < 40000; ++i) {
        if (rng.nextBool(0.8))
            trace.append(ifetch(0x40'0000 + 4 * rng.nextBelow(12'000)));
        else
            trace.append(ifetch(0x100'0000 + 4 * rng.nextBelow(2u << 20)));
    }
    return trace;
}

HierarchyStats
replay(TwoLevelCache &hierarchy, const Trace &trace)
{
    for (std::size_t i = 0; i < trace.size(); ++i)
        hierarchy.access(trace[i], i);
    return hierarchy.stats();
}

TEST(HierarchyPages, ResetReplayMatchesAFreshInstance)
{
    const Trace trace = excursionTrace();
    for (const std::uint64_t ratio : {1u, 64u}) {
        for (const HierarchyLeg &leg : kHierarchyLegs) {
            TwoLevelCache reused(hierarchyConfig(ratio, leg));
            SCOPED_TRACE(reused.name() + " at ratio " +
                         std::to_string(ratio));
            const HierarchyStats first = replay(reused, trace);
            reused.reset();
            EXPECT_EQ(reused.stats(), HierarchyStats{});
            const HierarchyStats second = replay(reused, trace);

            TwoLevelCache fresh(hierarchyConfig(ratio, leg));
            const HierarchyStats expected = replay(fresh, trace);
            EXPECT_EQ(first, expected);
            EXPECT_EQ(second, expected);
            EXPECT_GT(expected.l2.accesses, 0u);
        }
    }
}

TEST(HierarchyPages, LargeHierarchiesStartEmptyAfterUnmapping)
{
    // A block in the top L2 set: resident only if the hierarchy
    // installed it, never because the mapping reused dirty pages.
    const HierarchyConfig config = hierarchyConfig(64, kHierarchyLegs[0]);
    const Addr last_set = (config.l2.numSets() - 1) * 4;
    for (int round = 0; round < 48; ++round) {
        TwoLevelCache hierarchy(config);
        ASSERT_FALSE(hierarchy.l2Contains(last_set)) << "round " << round;
        ASSERT_FALSE(hierarchy.l2Contains(0)) << "round " << round;
        hierarchy.access(ifetch(last_set), 0);
        hierarchy.access(ifetch(0), 1);
        ASSERT_TRUE(hierarchy.l2Contains(last_set));
        ASSERT_TRUE(hierarchy.l2Contains(0));
        EXPECT_EQ(hierarchy.stats().l2.misses, 2u);
    }
}

struct Cell
{
    std::uint64_t a;
    std::uint32_t b;
};

TEST(ZeroPageArray, StartsZeroAndMovesOwnership)
{
    ZeroPageArray<Cell> cells(100'000);
    ASSERT_EQ(cells.size(), 100'000u);
    for (const Cell &cell : cells) {
        ASSERT_EQ(cell.a, 0u);
        ASSERT_EQ(cell.b, 0u);
    }
    cells[99'999].a = 42;

    ZeroPageArray<Cell> moved(std::move(cells));
    EXPECT_EQ(cells.size(), 0u);
    EXPECT_EQ(cells.begin(), cells.end());
    EXPECT_EQ(moved[99'999].a, 42u);

    ZeroPageArray<Cell> assigned(8);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 100'000u);
    EXPECT_EQ(assigned[99'999].a, 42u);

    const ZeroPageArray<Cell> empty;
    EXPECT_EQ(empty.size(), 0u);
}

} // namespace
} // namespace dynex
