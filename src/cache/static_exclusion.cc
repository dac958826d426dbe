#include "cache/static_exclusion.h"

#include <unordered_map>

#include "cache/optimal.h"
#include "util/logging.h"

namespace dynex
{

ExclusionProfile
ExclusionProfile::fromOptimalBypasses(const Trace &trace,
                                      const CacheGeometry &geometry)
{
    const NextUseIndex index(trace, geometry.lineBytes);
    OptimalDirectMappedCache oracle(geometry, index);

    // For every block: how often the optimal policy bypassed it vs
    // kept it on a miss.
    std::unordered_map<Addr, std::pair<Count, Count>> votes;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const AccessOutcome outcome = oracle.access(trace[i], i);
        if (outcome.hit)
            continue;
        const Addr block = geometry.blockOf(trace[i].addr);
        auto &[bypassed, kept] = votes[block];
        if (outcome.bypassed)
            ++bypassed;
        else
            ++kept;
    }

    ExclusionProfile profile;
    for (const auto &[block, counts] : votes) {
        if (counts.first > counts.second)
            profile.exclude(block);
    }
    return profile;
}

StaticExclusionCache::StaticExclusionCache(const CacheGeometry &geometry,
                                           const ExclusionProfile &profile)
    : CacheModel(geometry), exclusionSet(&profile)
{
    DYNEX_ASSERT(geometry.ways == 1,
                 "static exclusion models a direct-mapped cache");
    tags.assign(geo.numLines(), 0);
    valid.assign(geo.numLines(), false);
}

void
StaticExclusionCache::reset()
{
    std::fill(valid.begin(), valid.end(), false);
    resetStats();
}

AccessOutcome
StaticExclusionCache::doAccess(const MemRef &ref, Tick)
{
    const Addr block = blockOf(ref.addr);
    const std::uint64_t set = setOfBlock(block);

    AccessOutcome outcome;
    if (valid[set] && tags[set] == block) {
        outcome.hit = true;
        return outcome;
    }

    if (exclusionSet->isExcluded(block)) {
        outcome.bypassed = true;
        return outcome;
    }

    if (valid[set]) {
        outcome.evicted = true;
        outcome.victimBlock = tags[set];
    } else {
        noteColdMiss();
    }
    tags[set] = block;
    valid[set] = true;
    outcome.filled = true;
    return outcome;
}

} // namespace dynex
