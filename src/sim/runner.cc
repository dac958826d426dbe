#include "sim/runner.h"

#include <functional>
#include <iterator>

#include "cache/direct_mapped.h"
#include "cache/optimal.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dynex
{

namespace
{

SweepFaultHook &
faultHookSlot()
{
    static SweepFaultHook hook;
    return hook;
}

} // namespace

void
setSweepFaultHook(SweepFaultHook hook)
{
    faultHookSlot() = std::move(hook);
}

const SweepFaultHook &
sweepFaultHook()
{
    return faultHookSlot();
}

CacheStats
runTrace(CacheModel &cache, const Trace &trace)
{
    for (std::size_t i = 0; i < trace.size(); ++i)
        cache.access(trace[i], i);
    return cache.stats();
}

HierarchyStats
runTrace(TwoLevelCache &hierarchy, const Trace &trace)
{
    hierarchy.replay(trace.records().data(), trace.size());
    return hierarchy.stats();
}

double
TriadResult::deImprovementPct()
const
{
    return percentReduction(dm.missRate(), de.missRate());
}

double
TriadResult::optImprovementPct()
const
{
    return percentReduction(dm.missRate(), opt.missRate());
}

TriadResult
runTriad(const Trace &trace, const NextUseIndex &index,
         std::uint64_t size_bytes, std::uint32_t line_bytes,
         const DynamicExclusionConfig &de_config)
{
    DYNEX_ASSERT(index.blockSize() == line_bytes,
                 "index granularity mismatch");

    TriadResult result;

    // The three models are independent replays of the same read-only
    // trace; fan them out and write each into its own slot. The triad
    // is the leaf level of the sweep fan-out, so this also extracts
    // parallelism from a single-trace, single-size run.
    const auto geometry =
        CacheGeometry::directMapped(size_bytes, line_bytes);
    const std::function<void()> legs[] = {
        [&] {
            DirectMappedCache dm(geometry);
            result.dm = replayTrace(dm, trace);
        },
        [&] {
            DynamicExclusionCache de(geometry, de_config);
            result.de = replayTrace(de, trace);
            result.deEvents = de.eventCounts();
        },
        [&] {
            OptimalDirectMappedCache opt(geometry, index,
                                         /*use_last_line=*/true);
            result.opt = replayTrace(opt, trace);
        },
    };
    ThreadPool::global().parallelFor(
        std::size(legs), [&](std::size_t i) { legs[i](); });

    return result;
}

} // namespace dynex
