#include "sim/sweep.h"

#include <memory>
#include <optional>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/parallel.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/stats.h"

namespace dynex
{

const std::vector<std::uint64_t> &
paperCacheSizes()
{
    static const std::vector<std::uint64_t> sizes = {
        1024,      2 * 1024,  4 * 1024,  8 * 1024,
        16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024,
    };
    return sizes;
}

const std::vector<std::uint32_t> &
paperLineSizes()
{
    static const std::vector<std::uint32_t> lines = {4, 8, 16, 32, 64};
    return lines;
}

Status
validateSweepAxis(const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes)
{
    if (line_bytes < 2 || !isPowerOfTwo(line_bytes))
        return Status::corruptInput(
            "line size " + std::to_string(line_bytes) +
            " is not a power of two of at least 2 bytes");
    if (sizes.empty())
        return Status::corruptInput("empty cache-size axis");
    if (sizes.size() > kMaxSweepAxisSizes)
        return Status::resourceLimit(
            "cache-size axis of " + std::to_string(sizes.size()) +
            " entries exceeds the cap of " +
            std::to_string(kMaxSweepAxisSizes));
    std::uint64_t previous = 0;
    for (const std::uint64_t size : sizes) {
        if (!isPowerOfTwo(size))
            return Status::corruptInput(
                "cache size " + std::to_string(size) +
                " is not a power of two");
        if (size < line_bytes)
            return Status::corruptInput(
                "cache size " + std::to_string(size) +
                " is smaller than the " + std::to_string(line_bytes) +
                "-byte line");
        if (size <= previous)
            return Status::corruptInput(
                "cache sizes must be strictly increasing (saw " +
                std::to_string(size) + " after " +
                std::to_string(previous) + ")");
        previous = size;
    }
    return Status();
}

Status
validateStickyMax(std::uint64_t sticky_max)
{
    if (sticky_max < 1 || sticky_max > kMaxStickyMax)
        return Status::corruptInput(
            "sticky count " + std::to_string(sticky_max) +
            " is not in 1.." + std::to_string(kMaxStickyMax));
    return Status();
}

Result<DynamicExclusionConfig>
sweepLegConfig(std::uint32_t line_bytes, std::uint64_t sticky_max)
{
    if (Status valid = validateStickyMax(sticky_max); !valid.ok())
        return valid;
    DynamicExclusionConfig config;
    config.stickyMax = static_cast<std::uint8_t>(sticky_max);
    config.useLastLine = line_bytes > 4;
    return config;
}

double
SizeSweepPoint::deImprovementPct()
const
{
    return percentReduction(dmMissPct, deMissPct);
}

double
SizeSweepPoint::optImprovementPct()
const
{
    return percentReduction(dmMissPct, optMissPct);
}

double
LineSweepPoint::deImprovementPct()
const
{
    return percentReduction(dmMissPct, deMissPct);
}

double
LineSweepPoint::optImprovementPct()
const
{
    return percentReduction(dmMissPct, optMissPct);
}

namespace
{

/** The size-sweep view of @p legs: one point per size, with miss
 * rates where the leg succeeded. */
SizeSweepOutcome
sizeSweepOf(const std::vector<std::uint64_t> &sizes, TriadLegs legs)
{
    SizeSweepOutcome outcome;
    outcome.points.resize(sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        const TriadResult &triad = legs.triads[s];
        outcome.points[s] =
            legs.ok[s] ? SizeSweepPoint{sizes[s], triad.dmMissPct(),
                                        triad.deMissPct(),
                                        triad.optMissPct()}
                       : SizeSweepPoint{sizes[s]};
    }
    outcome.ok = std::move(legs.ok);
    outcome.failures = std::move(legs.failures);
    return outcome;
}

/**
 * The suite mean of @p grid into @p points: each column sums the miss
 * rates of the rows whose @p ok bit is set, in row (benchmark) order,
 * then divides once by their count. One accumulation order at any
 * thread count, so results are bit-identical; a column nobody
 * contributed to stays zero. @return the contributors per column.
 */
template <typename Point>
std::vector<Count>
suiteMean(const std::vector<std::vector<TriadResult>> &grid,
          const std::vector<std::vector<std::uint8_t>> &ok,
          std::vector<Point> &points)
{
    std::vector<Count> contributors(points.size(), 0);
    for (std::size_t b = 0; b < grid.size(); ++b) {
        for (std::size_t c = 0; c < points.size(); ++c) {
            if (!ok[b][c])
                continue;
            points[c].dmMissPct += grid[b][c].dmMissPct();
            points[c].deMissPct += grid[b][c].deMissPct();
            points[c].optMissPct += grid[b][c].optMissPct();
            ++contributors[c];
        }
    }
    for (std::size_t c = 0; c < points.size(); ++c) {
        if (contributors[c] == 0)
            continue;
        const auto n = static_cast<double>(contributors[c]);
        points[c].dmMissPct /= n;
        points[c].deMissPct /= n;
        points[c].optMissPct /= n;
    }
    return contributors;
}

} // namespace

SizeSweepOutcome
sweepSizesChecked(const Trace &trace,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config,
                  ReplayEngine engine)
{
    std::optional<obs::ScopedSpan> sweep_span;
    if (obs::Tracer::active())
        sweep_span.emplace("sweep", "sweep " + trace.name());

    std::unique_ptr<NextUseIndex> index;
    try {
        simobs::IndexBuildTimer index_timer;
        index = std::make_unique<NextUseIndex>(trace, line_bytes,
                                               NextUseMode::RunStart);
        index_timer.finish(trace.name());
    } catch (...) {
        // Without the shared next-use oracle no leg can run.
        const Status status =
            statusFromException(std::current_exception())
                .withContext("next-use index");
        TriadLegs legs;
        legs.triads.resize(sizes.size());
        legs.ok.assign(sizes.size(), 0);
        for (const std::uint64_t size : sizes)
            legs.failures.push_back(
                {.bench = trace.name(), .sizeBytes = size, .status = status});
        return sizeSweepOf(sizes, std::move(legs));
    }
    return sizeSweepOf(sizes, replayTriads(trace, *index, sizes,
                                           line_bytes, config,
                                           trace.name(), engine));
}

SizeSweepOutcome
sweepSizesChecked(const Trace &trace, const NextUseIndex &index,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config,
                  ReplayEngine engine)
{
    std::optional<obs::ScopedSpan> sweep_span;
    if (obs::Tracer::active())
        sweep_span.emplace("sweep", "sweep " + trace.name());
    return sizeSweepOf(sizes, replayTriads(trace, index, sizes,
                                           line_bytes, config,
                                           trace.name(), engine));
}

std::vector<SizeSweepPoint>
sweepSizes(const Trace &trace, const NextUseIndex &index,
           const std::vector<std::uint64_t> &sizes,
           std::uint32_t line_bytes, const DynamicExclusionConfig &config,
           ReplayEngine engine)
{
    SizeSweepOutcome outcome = sweepSizesChecked(
        trace, index, sizes, line_bytes, config, engine);
    throwFirstFailure(outcome);
    return std::move(outcome.points);
}

SuiteAverageOutcome
sweepSuiteAverageChecked(const std::vector<std::string> &benchmark_names,
                         Count refs,
                         const std::vector<std::uint64_t> &sizes,
                         std::uint32_t line_bytes,
                         const DynamicExclusionConfig &config,
                         bool data_refs, bool mixed_refs,
                         ReplayEngine engine)
{
    DYNEX_ASSERT(!(data_refs && mixed_refs),
                 "choose one stream kind");
    SuiteAverageOutcome outcome;
    outcome.points.resize(sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s)
        outcome.points[s].sizeBytes = sizes[s];

    const StreamKind stream = mixed_refs ? StreamKind::Mixed
                              : data_refs ? StreamKind::Data
                                          : StreamKind::Instructions;
    auto suite = sweepSuiteTriadsChecked(benchmark_names, refs, sizes,
                                         line_bytes, config, stream,
                                         engine);
    outcome.failures = std::move(suite.failures);
    // A failed leg simply contributes nothing to its size.
    outcome.contributors = suiteMean(suite.grid, suite.ok, outcome.points);
    for (const Count contributors : outcome.contributors)
        outcome.ok.push_back(contributors > 0);
    return outcome;
}

std::vector<SizeSweepPoint>
sweepSuiteAverage(const std::vector<std::string> &benchmark_names,
                  Count refs, const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config, bool data_refs,
                  bool mixed_refs, ReplayEngine engine)
{
    SuiteAverageOutcome outcome = sweepSuiteAverageChecked(
        benchmark_names, refs, sizes, line_bytes, config, data_refs,
        mixed_refs, engine);
    throwFirstFailure(outcome);
    return std::move(outcome.points);
}

std::vector<LineSweepPoint>
sweepSuiteLineSizes(const std::vector<std::string> &benchmark_names,
                    Count refs, std::uint64_t size_bytes,
                    const std::vector<std::uint32_t> &lines,
                    const DynamicExclusionConfig &config,
                    ReplayEngine engine)
{
    std::vector<LineSweepPoint> average(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l)
        average[l].lineBytes = lines[l];

    const auto grid = sweepSuiteLineTriads(benchmark_names, refs,
                                           size_bytes, lines, config,
                                           engine);
    // A failed leg throws, so every row contributes to every line.
    const std::vector<std::vector<std::uint8_t>> all_ok(
        grid.size(), std::vector<std::uint8_t>(lines.size(), 1));
    suiteMean(grid, all_ok, average);
    return average;
}

} // namespace dynex
