/**
 * @file
 * Program execution: walks a Program's tree and emits a bounded
 * reference trace.
 */

#ifndef DYNEX_TRACEGEN_EXECUTOR_H
#define DYNEX_TRACEGEN_EXECUTOR_H

#include <cstdint>

#include "trace/trace.h"
#include "tracegen/program.h"
#include "util/rng.h"

namespace dynex
{

/**
 * Mutable state threaded through a program walk: the output trace, the
 * reference budget, the random stream, and the call depth (to bound
 * recursion).
 *
 * The walk is the same whichever stream is kept: references of other
 * kinds are walked (they draw the same random numbers and advance the
 * same data patterns) but not appended, and only kept references count
 * against the budget. done() only ever stops the walk, so a filtered
 * walk's output is exactly the matching references of the mixed walk,
 * in order.
 */
class ExecContext
{
  public:
    /**
     * @param output sink trace.
     * @param budget maximum references to keep.
     * @param seed random stream seed.
     * @param stream which references to append to @p output.
     * @param max_call_depth recursion bound for Call nodes.
     */
    ExecContext(Trace &output, Count budget, std::uint64_t seed,
                StreamKind stream = StreamKind::Mixed,
                std::uint32_t max_call_depth = 48);

    /** @return true once the budget is filled or too many references
     * were skipped (callers unwind). */
    bool done() const { return emitted >= stopAt; }

    /** Emit one instruction fetch. */
    void emitInstr(Addr addr);

    /** Emit one data reference. */
    void emitLoad(Addr addr);
    void emitStore(Addr addr);

    Rng &rng() { return randomStream; }

    /** @return false if the call would exceed the depth bound. */
    bool enterCall();
    void leaveCall();

    /** References appended to the output so far. */
    Count emittedCount() const { return emitted; }

    /** References walked so far, kept or not. */
    Count walkedCount() const { return emitted + skipped; }

  private:
    /** Count one walked reference that is not kept. */
    void skip();

    Trace *out;
    /** The budget, or 0 once skipCap is passed: done() is one
     * compare on the per-reference path. */
    Count stopAt;
    Count skipCap;
    bool keepInstr;
    bool keepData;
    Count emitted = 0;
    Count skipped = 0;
    Rng randomStream;
    std::uint32_t callDepth = 0;
    std::uint32_t maxCallDepth;
};

/** A filtered stream walks at most this many times its budget. */
inline constexpr Count kFilteredWalkFactor = 256;

/**
 * Execute @p program repeatedly from its entry function until exactly
 * @p num_refs references of @p stream have been emitted.
 *
 * The program's data patterns are reset first, so generation is a pure
 * function of (program construction, num_refs, seed, stream). A
 * filtered stream equals the first @p num_refs matching references of
 * the mixed stream, named "<program>.ifetch" or "<program>.data" as
 * instructionRefs/dataRefs name them. It is a fatal error if a
 * filtered stream does not fill its budget within
 * kFilteredWalkFactor * @p num_refs walked references.
 */
Trace generateTrace(Program &program, Count num_refs, std::uint64_t seed,
                    StreamKind stream = StreamKind::Mixed);

/**
 * References emitted by one complete pass of the entry function —
 * the program's "phase cycle" length. Traces shorter than a few
 * passes cannot exhibit recurring cross-phase conflicts, so the
 * generators keep this small relative to the reference budgets
 * (checked by the suite tests).
 */
Count measurePassLength(Program &program, std::uint64_t seed,
                        Count cap = 100'000'000);

} // namespace dynex

#endif // DYNEX_TRACEGEN_EXECUTOR_H
