/**
 * @file
 * Triad replay: the one leg driver behind every sweep, and the SoA
 * kernel that is its default leg body.
 *
 * replayTriads runs the triad (direct-mapped, dynamic exclusion,
 * optimal with bypass) of one trace at each cache size, one pool task
 * per size. It owns everything a leg needs besides the replay itself:
 * the sweep fault hook, capturing a failure as a FailedLeg, the leg's
 * metrics slot, and progress. The ReplayEngine only picks the leg
 * body:
 *
 *  - Kernel streams the trace in chunks through all three models of
 *    the leg at once. Model state lives in struct-of-arrays lanes
 *    (flat tag, next-use and sticky arrays indexed by set; a
 *    zero-page bitmap for hit-last bits), each model advances through
 *    its policy's shared per-line step (directMappedStep,
 *    exclusionStep, optimalStep) with per-arc tallies, and the
 *    statistics are derived from the tallies once per leg. The
 *    run-boundary lane the last-line models share is precomputed per
 *    chunk, with an AVX2 path behind runtime dispatch (scalar
 *    fallback bit-identical).
 *  - PerLeg runs runTriad through the object models, the reference
 *    oracle for the kernel.
 *
 * A leg owns its lanes (or models) and tallies and only reads the
 * shared trace and next-use index, so both bodies give the same
 * CacheStats and FSM event counts at any worker count.
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

/** Which leg body replayTriads runs. */
enum class ReplayEngine : std::uint8_t
{
    /** The SoA kernel: one trace pass per size feeds all three
     * models. The default. */
    Kernel,
    /** runTriad through the object models; kept as the reference for
     * equivalence and determinism checks. */
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

/**
 * One failed leg of a fault-tolerant sweep. sizeBytes == 0 means the
 * whole benchmark failed (trace load / index build / setup), so every
 * size of that benchmark is invalid.
 */
struct FailedLeg
{
    std::string bench;
    std::uint64_t sizeBytes = 0;
    /** Which model(s) the failure covers; "triad" = all three. */
    std::string model = "triad";
    Status status;

    std::string toString() const;
};

/** The legs of one replayTriads call: triads[s] is meaningful iff
 * ok[s]; failures are ordered by size. */
struct TriadLegs
{
    std::vector<TriadResult> triads;
    std::vector<std::uint8_t> ok;
    std::vector<FailedLeg> failures;

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
 * The leg driver: replay the triad of @p trace at every one of
 * @p sizes, each size a task on the global pool (nested under any loop
 * the caller runs there). @p engine picks the leg body; everything
 * else is shared:
 *
 *  - the sweep fault hook runs before each leg, with @p bench as the
 *    label (empty means trace.name());
 *  - a leg that throws (including an injected fault) is recorded as a
 *    FailedLeg, and the surviving legs complete bit-identical to an
 *    unfaulted run;
 *  - each successful leg fills its registered metrics slot (results,
 *    replayNs, and the kernel's per-model split) and advances the
 *    progress bar by the trace length.
 *
 * Under either engine triads[s] is bit-identical to runTriad(trace,
 * index, sizes[s], line_bytes, config) at any worker count.
 *
 * @param index a RunStart next-use oracle for @p trace at
 *        @p line_bytes granularity, shared by every optimal leg.
 */
TriadLegs replayTriads(const Trace &trace, const NextUseIndex &index,
                       const std::vector<std::uint64_t> &sizes,
                       std::uint32_t line_bytes,
                       const DynamicExclusionConfig &config = {},
                       const std::string &bench = {},
                       ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_KERNEL_H
