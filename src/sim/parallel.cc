#include "sim/parallel.h"

#include <memory>
#include <optional>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "util/thread_pool.h"

namespace dynex
{

std::shared_ptr<const Trace>
loadStream(const std::string &name, Count refs, StreamKind stream)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;

    const std::shared_ptr<const Trace> trace =
        Workloads::stream(name, refs, stream);

    if (metrics) {
        metrics->add(obs::Counter::TraceLoadNs,
                     obs::monotonicNs() - metrics_t0);
        metrics->add(obs::Counter::TraceLoadRefs, trace->size());
    }
    if (tracer)
        tracer->complete("load " + name, "load", tracer_t0,
                         tracer->nowNs() - tracer_t0);
    return trace;
}

void
simParallelFor(std::size_t n,
               const std::function<void(std::size_t)> &body)
{
    ThreadPool::global().parallelFor(n, body);
}

SuiteSweepOutcome
sweepSuiteTriadsChecked(const std::vector<std::string> &benchmark_names,
                        Count refs,
                        const std::vector<std::uint64_t> &sizes,
                        std::uint32_t line_bytes,
                        const DynamicExclusionConfig &config,
                        StreamKind stream, ReplayEngine engine)
{
    const std::size_t benches = benchmark_names.size();
    SuiteSweepOutcome outcome;
    outcome.grid.assign(benches,
                        std::vector<TriadResult>(sizes.size()));
    outcome.ok.assign(benches,
                      std::vector<std::uint8_t>(sizes.size(), 0));

    // Failures land in per-benchmark slots and are concatenated
    // serially afterwards, so the failure list (like the grid) is
    // deterministic at any worker count.
    std::vector<std::vector<FailedLeg>> per_bench(benches);

    const auto escaped = ThreadPool::global().parallelForCollect(
        benches, [&](std::size_t b) {
            const std::string &bench = benchmark_names[b];
            std::optional<obs::ScopedSpan> bench_span;
            if (obs::Tracer::active())
                bench_span.emplace("bench", "bench " + bench);
            std::shared_ptr<const Trace> trace;
            std::unique_ptr<NextUseIndex> index;
            try {
                if (const auto &hook = sweepFaultHook())
                    hook(bench, 0);
                trace = loadStream(bench, refs, stream);
                thread_local NextUseScratch scratch;
                simobs::IndexBuildTimer index_timer;
                index = std::make_unique<NextUseIndex>(
                    *trace, line_bytes, NextUseMode::RunStart,
                    &scratch);
                index_timer.finish(bench);
            } catch (...) {
                per_bench[b].push_back(
                    {.bench = bench,
                     .status = statusFromException(
                         std::current_exception())});
                return;
            }
            // The sizes fan out beneath the benchmark fan-out above,
            // where the legs fill the pool's tail.
            TriadLegs legs = replayTriads(*trace, *index, sizes,
                                          line_bytes, config, bench,
                                          engine);
            outcome.grid[b] = std::move(legs.triads);
            outcome.ok[b] = std::move(legs.ok);
            per_bench[b] = std::move(legs.failures);
        });

    // A failure that escaped the per-leg capture (e.g. an allocation
    // failure while recording one) still only voids its own benchmark.
    for (const auto &e : escaped) {
        outcome.ok[e.index].assign(sizes.size(), 0);
        per_bench[e.index].clear();
        per_bench[e.index].push_back(
            {.bench = benchmark_names[e.index],
             .status = statusFromException(e.error)});
    }

    for (auto &failures : per_bench)
        for (auto &failure : failures)
            outcome.failures.push_back(std::move(failure));
    return outcome;
}

std::vector<std::vector<TriadResult>>
sweepSuiteLineTriads(const std::vector<std::string> &benchmark_names,
                     Count refs, std::uint64_t size_bytes,
                     const std::vector<std::uint32_t> &lines,
                     const DynamicExclusionConfig &config,
                     ReplayEngine engine)
{
    std::vector<std::vector<TriadResult>> grid(benchmark_names.size());
    simParallelFor(benchmark_names.size(), [&](std::size_t b) {
        const std::string &bench = benchmark_names[b];
        std::optional<obs::ScopedSpan> bench_span;
        if (obs::Tracer::active())
            bench_span.emplace("bench", "bench " + bench);
        const auto trace =
            loadStream(bench, refs, StreamKind::Instructions);
        // Serial over line sizes so every index build of this
        // benchmark reuses one scratch table.
        NextUseScratch scratch;
        grid[b].resize(lines.size());
        for (std::size_t l = 0; l < lines.size(); ++l) {
            simobs::IndexBuildTimer index_timer;
            const NextUseIndex index(*trace, lines[l],
                                     NextUseMode::RunStart, &scratch);
            index_timer.finish(bench);
            TriadLegs legs = replayTriads(*trace, index, {size_bytes},
                                          lines[l], config, bench, engine);
            throwFirstFailure(legs);
            grid[b][l] = legs.triads[0];
        }
    });
    return grid;
}

} // namespace dynex
