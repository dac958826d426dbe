/**
 * @file
 * Internal glue between the sweeps and the obs layer for next-use
 * index builds; the leg driver (replayTriads in sim/kernel.cc) does
 * its own. Cost with observability off is a null check per build.
 *
 * This header is sim-internal; the public observability surface is
 * src/obs/.
 */

#ifndef DYNEX_SIM_OBS_HOOKS_H
#define DYNEX_SIM_OBS_HOOKS_H

#include <string>

#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace dynex
{
namespace simobs
{

/**
 * Timer for a next-use index build. Construct immediately before the
 * build, call finish(bench) after it: charges wall time and a build
 * count to the counters and emits one "index" span. All no-ops when
 * nothing is installed.
 */
struct IndexBuildTimer
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    std::uint64_t metricsT0 = 0;
    std::uint64_t tracerT0 = 0;

    IndexBuildTimer()
    {
        if (metrics)
            metricsT0 = obs::monotonicNs();
        if (tracer)
            tracerT0 = tracer->nowNs();
    }

    void
    finish(const std::string &bench)
    {
        if (metrics) {
            metrics->add(obs::Counter::IndexBuildNs,
                         obs::monotonicNs() - metricsT0);
            metrics->add(obs::Counter::IndexBuilds, 1);
        }
        if (tracer)
            tracer->complete("index " + bench, "index", tracerT0,
                             tracer->nowNs() - tracerT0);
    }
};

} // namespace simobs
} // namespace dynex

#endif // DYNEX_SIM_OBS_HOOKS_H
