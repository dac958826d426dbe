#include "sim/parallel.h"

#include <memory>
#include <optional>
#include <sstream>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace dynex
{

std::string
FailedLeg::toString() const
{
    std::ostringstream oss;
    oss << bench << " @ "
        << (sizeBytes ? formatSize(sizeBytes) : std::string("all"))
        << " [" << model << "]: " << status.toString();
    return oss.str();
}

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

std::vector<std::vector<TriadResult>>
sweepSuiteTriads(const std::vector<std::string> &benchmark_names,
                 Count refs, const std::vector<std::uint64_t> &sizes,
                 std::uint32_t line_bytes,
                 const DynamicExclusionConfig &config, StreamKind stream,
                 ReplayEngine engine)
{
    std::vector<std::vector<TriadResult>> grid(benchmark_names.size());
    simParallelFor(benchmark_names.size(), [&](std::size_t b) {
        const std::string &bench = benchmark_names[b];
        std::optional<obs::ScopedSpan> bench_span;
        if (obs::Tracer::active())
            bench_span.emplace("bench", "bench " + bench);
        const auto trace = loadStream(bench, refs, stream);
        // Per-worker scratch: consecutive benchmarks on one pool
        // thread reuse the backward-pass table allocation.
        thread_local NextUseScratch scratch;
        simobs::IndexBuildTimer index_timer;
        const NextUseIndex index(*trace, line_bytes,
                                 NextUseMode::RunStart, &scratch);
        index_timer.finish(bench);
        auto &row = grid[b];
        if (engine != ReplayEngine::PerLeg) {
            // One pass over the trace feeds every (size, model) leg of
            // this benchmark; parallelism comes from the benchmark
            // fan-out above.
            row = engine == ReplayEngine::Kernel
                      ? replayTriadKernel(*trace, index, sizes,
                                          line_bytes, config)
                      : replayTriadBatch(*trace, index, sizes,
                                         line_bytes, config);
            return;
        }
        row.resize(sizes.size());
        simParallelFor(sizes.size(), [&](std::size_t s) {
            row[s] = simobs::runTriadLeg(*trace, index, bench,
                                         sizes[s], line_bytes, config);
        });
    });
    return grid;
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
                    {bench, 0, "triad",
                     statusFromException(std::current_exception())});
                return;
            }
            if (engine != ReplayEngine::PerLeg) {
                auto batch =
                    engine == ReplayEngine::Kernel
                        ? replayTriadKernelChecked(*trace, *index,
                                                   sizes, line_bytes,
                                                   config, bench)
                        : replayTriadBatchChecked(*trace, *index,
                                                  sizes, line_bytes,
                                                  config, bench);
                outcome.grid[b] = std::move(batch.triads);
                outcome.ok[b] = std::move(batch.ok);
                for (auto &failure : batch.failures)
                    per_bench[b].push_back(
                        {bench, sizes[failure.sizeIndex], "triad",
                         std::move(failure.status)});
                return;
            }
            std::vector<Status> leg_status(sizes.size());
            simParallelFor(sizes.size(), [&](std::size_t s) {
                try {
                    if (const auto &hook = sweepFaultHook())
                        hook(bench, sizes[s]);
                    outcome.grid[b][s] = simobs::runTriadLeg(
                        *trace, *index, bench, sizes[s], line_bytes,
                        config);
                    outcome.ok[b][s] = 1;
                } catch (...) {
                    leg_status[s] = statusFromException(
                        std::current_exception());
                }
            });
            for (std::size_t s = 0; s < sizes.size(); ++s)
                if (!outcome.ok[b][s])
                    per_bench[b].push_back({bench, sizes[s], "triad",
                                            leg_status[s]});
        });

    // A failure that escaped the per-leg capture (e.g. an allocation
    // failure while recording one) still only voids its own benchmark.
    for (const auto &e : escaped) {
        outcome.ok[e.index].assign(sizes.size(), 0);
        per_bench[e.index].clear();
        per_bench[e.index].push_back({benchmark_names[e.index], 0,
                                      "triad",
                                      statusFromException(e.error)});
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
        auto &row = grid[b];
        row.resize(lines.size());
        if (engine != ReplayEngine::PerLeg) {
            // Serial over line sizes so every index build of this
            // benchmark reuses one scratch table; each line point's
            // three models replay in a single trace pass.
            NextUseScratch scratch;
            const std::vector<std::uint64_t> one_size = {size_bytes};
            for (std::size_t l = 0; l < lines.size(); ++l) {
                simobs::IndexBuildTimer index_timer;
                const NextUseIndex index(*trace, lines[l],
                                         NextUseMode::RunStart,
                                         &scratch);
                index_timer.finish(bench);
                row[l] = engine == ReplayEngine::Kernel
                             ? replayTriadKernel(*trace, index,
                                                 one_size, lines[l],
                                                 config)[0]
                             : replayTriadBatch(*trace, index,
                                                one_size, lines[l],
                                                config)[0];
            }
            return;
        }
        simParallelFor(lines.size(), [&](std::size_t l) {
            simobs::IndexBuildTimer index_timer;
            const NextUseIndex index(*trace, lines[l],
                                     NextUseMode::RunStart);
            index_timer.finish(bench);
            row[l] = runTriad(*trace, index, size_bytes, lines[l],
                              config);
        });
    });
    return grid;
}

} // namespace dynex
