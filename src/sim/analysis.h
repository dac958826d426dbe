/**
 * @file
 * Trace analysis: the structural measurements behind the paper's
 * reasoning — per-set conflict degree (how many distinct blocks
 * compete for each line), block reuse distances, and a cold-start /
 * steady-state split of cache statistics.
 */

#ifndef DYNEX_SIM_ANALYSIS_H
#define DYNEX_SIM_ANALYSIS_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/config.h"
#include "obs/histogram.h"
#include "trace/trace.h"

namespace dynex
{

/**
 * Census of conflict pressure for one cache geometry: how many
 * distinct blocks map to each set over the whole trace. Dynamic
 * exclusion's headroom lives in the 2-block sets; k >= 3 rotations
 * defeat a single sticky bit (the paper's (abc)^n discussion).
 */
struct ConflictCensus
{
    /** setsWithDegree[k] = number of sets contested by exactly k
     * distinct blocks (k capped at the vector's last bin). */
    std::vector<Count> setsWithDegree;

    Count totalSets = 0;

    /** Sets with exactly one block (never conflicting). */
    Count unconflicted() const;

    /** Sets with exactly two blocks (the FSM's sweet spot). */
    Count twoWay() const;

    /** Sets with three or more blocks. */
    Count multiWay() const;

    std::string toString() const;
};

/**
 * Measure the conflict census of @p trace under @p geometry.
 * @param max_degree histogram cap; higher degrees are clamped.
 */
ConflictCensus conflictCensus(const Trace &trace,
                              const CacheGeometry &geometry,
                              std::uint32_t max_degree = 8);

/**
 * Histogram of block reuse distances: the number of *other* distinct
 * blocks referenced between consecutive uses of each block at
 * @p block_size granularity (a unique-block stack distance, bucketed
 * by powers of two). Short distances mean live conflicts; distances
 * beyond the cache's line count are capacity traffic.
 */
obs::Log2Histogram reuseDistanceHistogram(const Trace &trace,
                                          std::uint64_t block_size);

/** Statistics split at a warmup boundary. */
struct WarmSplit
{
    CacheStats warmup;  ///< first `warmup_fraction` of the trace
    CacheStats steady;  ///< the remainder
};

/**
 * Replay @p trace through @p cache, splitting statistics at
 * @p warmup_fraction of the trace. Used to separate one-time training
 * and cold-fill costs from steady-state behavior (the paper: the
 * nasa7/tomcatv increase "is negligible" on full-length streams).
 */
WarmSplit runTraceSplit(CacheModel &cache, const Trace &trace,
                        double warmup_fraction = 0.25);

} // namespace dynex

#endif // DYNEX_SIM_ANALYSIS_H
