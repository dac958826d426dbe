#include "sim/analysis.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

Count
ConflictCensus::unconflicted() const
{
    return setsWithDegree.size() > 1 ? setsWithDegree[1] : 0;
}

Count
ConflictCensus::twoWay() const
{
    return setsWithDegree.size() > 2 ? setsWithDegree[2] : 0;
}

Count
ConflictCensus::multiWay() const
{
    Count total = 0;
    for (std::size_t k = 3; k < setsWithDegree.size(); ++k)
        total += setsWithDegree[k];
    return total;
}

std::string
ConflictCensus::toString() const
{
    std::ostringstream oss;
    oss << totalSets << " sets: " << unconflicted() << " unconflicted, "
        << twoWay() << " two-way, " << multiWay() << " multi-way";
    return oss.str();
}

ConflictCensus
conflictCensus(const Trace &trace, const CacheGeometry &geometry,
               std::uint32_t max_degree)
{
    DYNEX_ASSERT(max_degree >= 3, "census needs at least 3 bins");
    std::unordered_map<std::uint64_t, std::unordered_set<Addr>> blocks;
    for (const auto &ref : trace)
        blocks[geometry.setOf(ref.addr)].insert(
            geometry.blockOf(ref.addr));

    ConflictCensus census;
    census.totalSets = geometry.numSets();
    census.setsWithDegree.assign(max_degree + 1, 0);
    // Untouched sets count as degree 0.
    census.setsWithDegree[0] = geometry.numSets() - blocks.size();
    for (const auto &[set, distinct] : blocks) {
        const auto degree = std::min<std::size_t>(distinct.size(),
                                                  max_degree);
        ++census.setsWithDegree[degree];
    }
    return census;
}

obs::Log2Histogram
reuseDistanceHistogram(const Trace &trace, std::uint64_t block_size)
{
    DYNEX_ASSERT(isPowerOfTwo(block_size),
                 "block size must be a power of two");
    const unsigned shift = floorLog2(block_size);

    // Distance = intervening line references (runs collapsed) between
    // consecutive uses of a block. This overcounts a true LRU stack
    // distance when blocks repeat in the window, but preserves the
    // short/long separation the analysis needs, in O(n).
    obs::Log2Histogram histogram;
    std::unordered_map<Addr, Count> last_epoch;
    Count epoch = 0;
    Addr prev_block = kAddrInvalid;
    for (const auto &ref : trace) {
        const Addr block = ref.addr >> shift;
        if (block == prev_block)
            continue;
        prev_block = block;
        const auto [it, inserted] = last_epoch.try_emplace(block, epoch);
        if (!inserted) {
            histogram.add(epoch - it->second - 1);
            it->second = epoch;
        }
        ++epoch;
    }
    return histogram;
}

WarmSplit
runTraceSplit(CacheModel &cache, const Trace &trace,
              double warmup_fraction)
{
    DYNEX_ASSERT(warmup_fraction >= 0.0 && warmup_fraction <= 1.0,
                 "warmup fraction must be in [0,1]");
    const auto boundary =
        static_cast<std::size_t>(warmup_fraction *
                                 static_cast<double>(trace.size()));

    WarmSplit split;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == boundary)
            split.warmup = cache.stats();
        cache.access(trace[i], i);
    }
    if (trace.size() == 0 || boundary >= trace.size())
        split.warmup = cache.stats();

    const CacheStats total = cache.stats();
    split.steady.accesses = total.accesses - split.warmup.accesses;
    split.steady.hits = total.hits - split.warmup.hits;
    split.steady.misses = total.misses - split.warmup.misses;
    split.steady.coldMisses = total.coldMisses - split.warmup.coldMisses;
    split.steady.fills = total.fills - split.warmup.fills;
    split.steady.bypasses = total.bypasses - split.warmup.bypasses;
    split.steady.evictions = total.evictions - split.warmup.evictions;
    return split;
}

} // namespace dynex
