/**
 * @file
 * The SoA replay kernel: the production engine behind every sweep.
 *
 * A per-leg sweep re-streams the trace once per (size, model) leg and
 * walks a per-model object for every reference: an AccessOutcome is
 * materialized, recordOutcome folds six counters, the DM model probes
 * a vector<bool>, and the DE model calls through the hit-last store
 * for every transition. The kernel runs each size leg as its own pool
 * task, streaming the trace in chunks through all three models of the
 * leg at once, and strips the per-reference machinery:
 *
 *  - model state lives in struct-of-arrays lanes (flat tag, next-use,
 *    and sticky arrays indexed by set; a zero-page bitmap for hit-last
 *    bits) with sentinel tags instead of validity sidecars;
 *  - each model advances through its policy's shared per-line step
 *    (directMappedStep, exclusionStep, optimalStep), the same
 *    functions the object models call, with per-arc event tallies;
 *  - statistics are derived from the event tallies once per pass
 *    instead of six counter adds per reference per model;
 *  - the run-boundary lane shared by the last-line models is
 *    precomputed per chunk, with an AVX2 path behind runtime dispatch
 *    (scalar fallback bit-identical).
 *
 * A leg owns its lanes and tallies and only reads the shared packed
 * view and next-use index, so results are bit-identical to the per-leg
 * object models, which stay as the reference oracle: same CacheStats,
 * same FSM event counts, at any worker count.
 */

#ifndef DYNEX_SIM_KERNEL_H
#define DYNEX_SIM_KERNEL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/runner.h"
#include "trace/next_use.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** Which replay strategy a sweep uses. */
enum class ReplayEngine : std::uint8_t
{
    /** The SoA kernel: one trace pass per size feeds all three models,
     * one pool task per size. The default. */
    Kernel,
    /** One trace pass per leg through the object models; kept as the
     * reference for equivalence and determinism checks. */
    PerLeg,
};

/** The engine names a parse error should list. */
inline constexpr const char *kReplayEngineNames = "kernel, per-leg";

/** @return the name reports print: "kernel" or "per-leg". */
const char *replayEngineName(ReplayEngine engine);

/**
 * Parse an engine name, ignoring case: "kernel", "per-leg", or
 * "batched", the name of the retired batched engine, kept as an alias
 * of the kernel (their outputs were bit-identical). nullopt otherwise.
 */
std::optional<ReplayEngine> parseReplayEngine(const std::string &name);

/** The DXP1 sweep-request engine byte: 1 = per-leg, 2 = kernel. */
std::uint8_t replayEngineWireCode(ReplayEngine engine);

/** Decode a DXP1 engine byte: 1 is per-leg; 2, and 0 (the retired
 * batched engine), are the kernel; anything else is nullopt. */
std::optional<ReplayEngine> replayEngineFromWireCode(std::uint8_t code);

namespace detail
{

/** References per kernel chunk: 4096 block numbers = 32KB, sized to
 * stay resident in L1/L2 while every leg replays it. */
inline constexpr std::size_t kKernelChunkRefs = 4096;

} // namespace detail

/** One failed size leg of a kernel pass. */
struct TriadLegFailure
{
    std::size_t sizeIndex = 0;
    Status status;
};

/** The result of a fault-tolerant kernel pass: per-size triads plus a
 * validity mask and the statuses of any legs that failed. */
struct TriadPassOutcome
{
    /** triads[s] is meaningful iff ok[s]. */
    std::vector<TriadResult> triads;
    std::vector<std::uint8_t> ok;
    /** Sorted by sizeIndex. */
    std::vector<TriadLegFailure> failures;

    bool allOk() const { return failures.empty(); }
};

/** The unchecked entry points' contract: throw the first failure of a
 * checked @p outcome (any struct with a `failures` list of entries
 * carrying a `status`) as a StatusError. */
template <typename Outcome>
void
throwFirstFailure(const Outcome &outcome)
{
    if (!outcome.failures.empty())
        throw StatusError(outcome.failures.front().status);
}

/** Which instruction set the kernel's dispatched helpers use. */
enum class KernelIsa
{
    Scalar, ///< portable C++ (compiled at the build's baseline ISA)
    Avx2,   ///< explicit 256-bit lanes for the chunk precomputes
};

/** @return a short lowercase name for @p isa ("scalar", "avx2"). */
const char *kernelIsaName(KernelIsa isa);

/**
 * The ISA the kernel will use for the next pass: Avx2 when the CPU
 * supports it and no override is active, Scalar otherwise. Overrides:
 * setKernelForceScalar(true), or the DYNEX_KERNEL_FORCE_SCALAR
 * environment variable (any non-empty value other than "0").
 */
KernelIsa kernelDispatchIsa();

/** Force the scalar path regardless of CPU support (test hook; the
 * dispatch unit test uses it to compare both paths on one machine). */
void setKernelForceScalar(bool force);

/** @return true when the scalar override is active. */
bool kernelForceScalar();

/**
 * Replay all |sizes| x {conventional, dynamic-exclusion, optimal} legs
 * through the SoA lanes: one pass over @p trace per size, each size a
 * task on the global pool (nested under any loop the caller runs
 * there). A leg whose
 * setup throws (or an injected fault via the sweep fault hook) is
 * recorded as a TriadLegFailure and skipped; surviving legs complete
 * with results bit-identical to an unfaulted run, and triads[s] is
 * bit-identical to runTriad(trace, index, sizes[s], line_bytes,
 * de_config).
 *
 * @param index a RunStart next-use oracle for @p trace at
 *        @p line_bytes granularity, shared by every optimal leg.
 * @param bench the benchmark label passed to the sweep fault hook;
 *        empty means "use trace.name()".
 */
TriadPassOutcome replayTriadKernelChecked(
    const Trace &trace, const NextUseIndex &index,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &de_config = {},
    const std::string &bench = {});

/** replayTriadKernelChecked, throwing the first failed leg's Status
 * as a StatusError; result[s] is the triad at sizes[s]. */
std::vector<TriadResult> replayTriadKernel(
    const Trace &trace, const NextUseIndex &index,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &de_config = {});

} // namespace dynex

#endif // DYNEX_SIM_KERNEL_H
