/**
 * @file
 * The parallel simulation engine: fans independent (benchmark x
 * cache-size x model) simulations out across the shared thread pool
 * while guaranteeing results bit-identical to a serial run.
 *
 * Determinism contract: every helper here writes each simulation's
 * result into a slot pre-sized from the input axes, and every
 * reduction over those slots happens serially in input order after the
 * fan-out completes. Thread count (DYNEX_THREADS, --threads, or the
 * hardware default) therefore affects wall-clock time only, never a
 * single output bit.
 */

#ifndef DYNEX_SIM_PARALLEL_H
#define DYNEX_SIM_PARALLEL_H

#include <functional>
#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/kernel.h"
#include "sim/runner.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/**
 * A fault-tolerant suite sweep's result: the triad grid plus a
 * validity mask and the recorded failures. grid[b][s] is meaningful
 * iff ok[b][s]; failures are ordered benchmark-major then by size, so
 * the outcome is deterministic at any worker count.
 */
struct SuiteSweepOutcome
{
    std::vector<std::vector<TriadResult>> grid;
    std::vector<std::vector<std::uint8_t>> ok;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/** Load the requested stream of @p name via Workloads. */
std::shared_ptr<const Trace> loadStream(const std::string &name,
                                        Count refs, StreamKind stream);

/**
 * Run body(i) for i in [0, n) on the global pool and block until all
 * complete. Thin wrapper over ThreadPool::global().parallelFor so sim
 * code does not depend on the pool type directly; may be nested.
 */
void simParallelFor(std::size_t n,
                    const std::function<void(std::size_t)> &body);

/**
 * The full triad grid of a suite sweep: grid[b][s] is the triad of
 * benchmark_names[b] at sizes[s]. One trace and one RunStart next-use
 * index are built per benchmark (at @p line_bytes) and shared across
 * that benchmark's sizes. Benchmarks fan out across the pool, and each
 * runs its sizes through replayTriads beneath it, whichever the
 * engine. At most one trace + index per in-flight benchmark is
 * resident, so peak memory scales with the worker count rather than
 * the suite size. Both engines produce bit-identical grids at any
 * worker count.
 *
 * Every failure — a throwing trace load, a failing leg, an injected
 * fault — is captured as a FailedLeg instead of propagating, and
 * every unaffected leg completes with results bit-identical to an
 * unfaulted run. Benchmarks are independent simulations, so one
 * benchmark's failure cannot perturb another's replay; within a
 * benchmark, legs are independent models, so a failed leg cannot
 * perturb its siblings.
 */
SuiteSweepOutcome sweepSuiteTriadsChecked(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config, StreamKind stream,
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * The line-size counterpart: result[b][l] is the triad of
 * benchmark_names[b] at lines[l] with fixed @p size_bytes. A fresh
 * RunStart index is built per (benchmark, line size), since next-use
 * equivalence depends on block granularity. Each benchmark walks its
 * line sizes serially, so the index builds share one scratch table,
 * and runs each line point through replayTriads with the benchmark as
 * the leg label. A failed leg (an injected fault included) is thrown
 * as a StatusError.
 */
std::vector<std::vector<TriadResult>> sweepSuiteLineTriads(
    const std::vector<std::string> &benchmark_names, Count refs,
    std::uint64_t size_bytes, const std::vector<std::uint32_t> &lines,
    const DynamicExclusionConfig &config,
    ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_PARALLEL_H
