/**
 * @file
 * Shared computation for Figures 7-9: the suite-averaged two-level
 * hierarchy sweep over relative L2 sizes, for the conventional
 * baseline and each hit-last storage policy.
 *
 * For the hashed policy the L1-side hit-last table scales with the
 * ratio (ratio entries per L1 line), matching the paper's reading of
 * Figure 7 that "the hashing strategy needs only four hit-last bits
 * for each cache line to get good performance".
 */

#ifndef DYNEX_BENCH_HIERARCHY_SWEEP_H
#define DYNEX_BENCH_HIERARCHY_SWEEP_H

#include <array>
#include <iterator>
#include <vector>

#include "bench_common.h"
#include "cache/hierarchy.h"
#include "sim/parallel.h"

namespace dynex::bench
{

/** Suite-averaged results at one relative L2 size. */
struct HierarchyRow
{
    std::uint64_t ratio = 0; ///< L2 size / L1 size

    // L1 miss rates (percent of all references).
    double l1Dm = 0.0;
    double l1AssumeHit = 0.0;
    double l1AssumeMiss = 0.0;
    double l1Hashed = 0.0;
    double l1Ideal = 0.0;

    // L2 global miss rates (L2 misses per total reference, percent).
    double l2Dm = 0.0;
    double l2AssumeHit = 0.0;
    double l2AssumeMiss = 0.0;
    double l2Hashed = 0.0;
    double l2Ideal = 0.0;
};

/** The relative L2 sizes of Figures 7-9. */
inline std::vector<std::uint64_t>
paperL2Ratios()
{
    return {1, 2, 4, 8, 16, 32, 64};
}

/** One column of the grid: the L1 kind and where its hit-last bits
 * live. */
struct HierarchyLeg
{
    bool dynexL1;
    HitLastPolicy policy;
};

/** The grid's five configurations, in HierarchyRow's field order. */
inline constexpr HierarchyLeg kHierarchyLegs[] = {
    {false, HitLastPolicy::Ideal}, // conventional direct-mapped L1
    {true, HitLastPolicy::AssumeHit},
    {true, HitLastPolicy::AssumeMiss},
    {true, HitLastPolicy::Hashed},
    {true, HitLastPolicy::Ideal},
};

inline constexpr std::size_t kNumHierarchyLegs = std::size(kHierarchyLegs);

/** The hierarchy of @p leg with an L2 @p ratio times the 32KB L1. */
inline HierarchyConfig
hierarchyConfig(std::uint64_t ratio, const HierarchyLeg &leg)
{
    HierarchyConfig config;
    config.l1 = CacheGeometry::directMapped(kCacheBytes, kWordLine);
    config.l2 = CacheGeometry::directMapped(kCacheBytes * ratio, kWordLine);
    config.l1DynamicExclusion = leg.dynexL1;
    config.policy = leg.policy;
    config.hashedEntriesPerLine = static_cast<std::uint32_t>(ratio);
    return config;
}

/**
 * Run the full sweep (suite-averaged) at the canonical 32KB L1.
 *
 * Benchmark-major: each benchmark's instruction stream is loaded once
 * and its ratios x legs fan out across the pool into pre-sized slots,
 * so at most two streams (this one and the next) are live. The
 * averages are then summed serially in ratio-then-benchmark order, so
 * every row is bit-identical at any worker count.
 */
inline std::vector<HierarchyRow>
hierarchySweep()
{
    const auto names = suiteNames();
    const Count budget = refs();
    const auto ratios = paperL2Ratios();

    // stats[b][r][k]: benchmark b, ratio r, leg k.
    using LegStats = std::array<HierarchyStats, kNumHierarchyLegs>;
    std::vector<std::vector<LegStats>> stats(
        names.size(), std::vector<LegStats>(ratios.size()));
    const std::size_t legs = ratios.size() * kNumHierarchyLegs;
    auto trace = Workloads::instructions(names.front(), budget);
    for (std::size_t b = 0; b < names.size(); ++b) {
        // Task 0 generates the next benchmark's stream while the other
        // workers replay this one's legs.
        std::shared_ptr<const Trace> next;
        simParallelFor(1 + legs, [&](std::size_t i) {
            if (i == 0) {
                if (b + 1 < names.size())
                    next = Workloads::instructions(names[b + 1], budget);
                return;
            }
            const std::size_t r = (i - 1) / kNumHierarchyLegs;
            const std::size_t k = (i - 1) % kNumHierarchyLegs;
            TwoLevelCache hierarchy(
                hierarchyConfig(ratios[r], kHierarchyLegs[k]));
            stats[b][r][k] = runTrace(hierarchy, *trace);
        });
        trace = std::move(next);
    }

    std::vector<HierarchyRow> rows;
    for (std::size_t r = 0; r < ratios.size(); ++r) {
        HierarchyRow row;
        row.ratio = ratios[r];

        for (std::size_t b = 0; b < names.size(); ++b) {
            const auto &[dm, hit, miss, hashed, ideal] = stats[b][r];

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

} // namespace dynex::bench

#endif // DYNEX_BENCH_HIERARCHY_SWEEP_H
