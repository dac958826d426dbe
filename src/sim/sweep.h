/**
 * @file
 * Parameter sweeps shared by the figure benches: cache-size sweeps,
 * line-size sweeps, and suite-averaged results.
 */

#ifndef DYNEX_SIM_SWEEP_H
#define DYNEX_SIM_SWEEP_H

#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/kernel.h"
#include "sim/parallel.h"
#include "sim/runner.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** The paper's cache-size axis (1KB to 128KB). */
const std::vector<std::uint64_t> &paperCacheSizes();

/** Most sizes a single sweep axis may carry (campaigns, wire). */
inline constexpr std::size_t kMaxSweepAxisSizes = 64;

/**
 * Validate a caller-supplied cache-size axis at @p line_bytes
 * granularity: the line a power of two of at least 2 bytes (so no
 * block number is the kAddrInvalid sentinel), the axis non-empty, at
 * most kMaxSweepAxisSizes entries, every size a power of two no
 * smaller than the line, and strictly increasing. Violations yield
 * CorruptInput (ResourceLimit for the count cap) naming the offending
 * size or line.
 */
Status validateSweepAxis(const std::vector<std::uint64_t> &sizes,
                         std::uint32_t line_bytes);

/** Largest sticky-counter saturation (the counter is a uint8_t). */
inline constexpr std::uint64_t kMaxStickyMax = 255;

/** CorruptInput unless @p sticky_max is in 1..kMaxStickyMax: at 0
 * the Figure 1 machine has no sticky state to decay. */
Status validateStickyMax(std::uint64_t sticky_max);

/**
 * The dynamic-exclusion configuration of a sweep leg at @p line_bytes:
 * the last-line buffer on iff the line is wider than one 4-byte
 * instruction word (Section 6, scheme 2), and the sticky counter
 * saturating at @p sticky_max. The CLI's triad and sweep, the daemon's
 * SWEEP, campaigns and the line-size figure all derive their legs
 * here, so the same leg is bit-identical on every path. CorruptInput
 * when validateStickyMax rejects @p sticky_max.
 */
Result<DynamicExclusionConfig> sweepLegConfig(std::uint32_t line_bytes,
                                              std::uint64_t sticky_max);

/** The paper's line-size axis (4B to 64B). */
const std::vector<std::uint32_t> &paperLineSizes();

/** One (cache size, triad) point. */
struct SizeSweepPoint
{
    std::uint64_t sizeBytes = 0;
    double dmMissPct = 0.0;
    double deMissPct = 0.0;
    double optMissPct = 0.0;

    double deImprovementPct() const;
    double optImprovementPct() const;
};

/**
 * A fault-tolerant size sweep's result: every requested size has a
 * point (with its sizeBytes filled in), but points[s] carries real
 * miss rates only when ok[s]; the statuses of failed legs are listed
 * in failures (ordered by size).
 */
struct SizeSweepOutcome
{
    std::vector<SizeSweepPoint> points;
    std::vector<std::uint8_t> ok;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * Run the three-way comparison over @p sizes on one trace. A single
 * RunStart next-use index at @p line_bytes is built once. The kernel
 * streams the trace once per size, for all three models, one pool task
 * per size; PerLeg replays per (size, model) leg. Both produce
 * bit-identical results at any thread count.
 *
 * A failing leg (including one injected via the sweep fault hook) is
 * recorded instead of propagating, and every other leg completes
 * bit-identical to an unfaulted run at any worker count.
 */
SizeSweepOutcome sweepSizesChecked(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    std::uint32_t line_bytes, const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * sweepSizesChecked with a caller-supplied next-use oracle: @p index
 * must be a RunStart index over @p trace at @p line_bytes
 * granularity. The serving subsystem passes the TraceStore's cached
 * index here so a warm request skips the build entirely; results are
 * bit-identical to the index-building overload.
 */
SizeSweepOutcome sweepSizesChecked(
    const Trace &trace, const NextUseIndex &index,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/** sweepSizesChecked, throwing the first failed leg's Status as a
 * StatusError. */
std::vector<SizeSweepPoint> sweepSizes(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    std::uint32_t line_bytes, const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/** The caller-supplied-index sweepSizesChecked, throwing the first
 * failed leg's Status as a StatusError. */
std::vector<SizeSweepPoint> sweepSizes(
    const Trace &trace, const NextUseIndex &index,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * A fault-tolerant suite average: points[s] averages the benchmarks
 * whose leg at sizes[s] succeeded (contributors[s] of them, in input
 * order), and ok[s] is false when no benchmark contributed. Per-leg
 * failures are listed in failures.
 */
struct SuiteAverageOutcome
{
    std::vector<SizeSweepPoint> points;
    std::vector<std::uint8_t> ok;
    std::vector<Count> contributors;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * Suite-averaged size sweep: arithmetic mean of the per-benchmark miss
 * percentages at each size (the paper's "average ... across the SPEC
 * benchmarks"), reduced serially in benchmark order, so results are
 * bit-identical at any thread count.
 *
 * @param benchmark_names suite member names.
 * @param refs per-benchmark reference budget.
 * @param data_refs use the data stream instead of instruction fetches.
 * @param mixed_refs use the mixed I+D stream.
 * @param engine the kernel (one trace pass per size) or per-leg.
 */
SuiteAverageOutcome sweepSuiteAverageChecked(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {}, bool data_refs = false,
    bool mixed_refs = false,
    ReplayEngine engine = ReplayEngine::Kernel);

/** sweepSuiteAverageChecked, throwing the first failed leg's Status
 * as a StatusError. */
std::vector<SizeSweepPoint> sweepSuiteAverage(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {}, bool data_refs = false,
    bool mixed_refs = false,
    ReplayEngine engine = ReplayEngine::Kernel);

/** One (line size, triad) point at fixed capacity. */
struct LineSweepPoint
{
    std::uint32_t lineBytes = 0;
    double dmMissPct = 0.0;
    double deMissPct = 0.0;
    double optMissPct = 0.0;

    double deImprovementPct() const;
    double optImprovementPct() const;
};

/** Suite-averaged line-size sweep at fixed @p size_bytes. */
std::vector<LineSweepPoint> sweepSuiteLineSizes(
    const std::vector<std::string> &benchmark_names, Count refs,
    std::uint64_t size_bytes, const std::vector<std::uint32_t> &lines,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_SWEEP_H
