/**
 * @file
 * The dynamic-exclusion finite state machine of McFarling (ISCA 1992),
 * Figure 1, as the one per-line transition function every
 * dynamic-exclusion replay calls: the single-level models, the L1 of
 * the two-level hierarchy, and the SoA replay kernel. The L2 of the
 * hierarchy runs a variant of it, l2ExclusionStep, at the end.
 *
 * Each cache line carries a sticky state; each *address* carries a
 * hit-last bit h[x] stored outside the line (see hit_last.h for the
 * storage options). On an access to block x when the line holds y:
 *
 *   cold (invalid line)      -> fill x;    s := max; h[x] := 1
 *   hit  (x == y)            ->            s := max; h[x] := 1
 *   miss, s == 0             -> replace y; s := max; h[x] := 1
 *   miss, s > 0, h[x] == 1   -> replace y; s := max; h[x] := 0
 *   miss, s > 0, h[x] == 0   -> BYPASS x;  s := s - 1
 *
 * With the paper's single sticky bit, max == 1. The generalization to
 * a saturating counter (max > 1) is the multiple-sticky-bit extension
 * of WRL TN-22, which can retain a line through the (abc)^n pattern at
 * the cost of longer training.
 */

#ifndef DYNEX_CACHE_EXCLUSION_FSM_H
#define DYNEX_CACHE_EXCLUSION_FSM_H

#include <cstdint>

#include "util/types.h"

namespace dynex
{

/** Per-line state of a dynamic-exclusion cache line. */
struct ExclusionLine
{
    Addr tag = kAddrInvalid; ///< resident block; kAddrInvalid if none
    std::uint8_t sticky = 0; ///< saturating inertia counter
};

/** Which FSM transition fired. */
enum class FsmEvent : std::uint8_t
{
    ColdFill,       ///< invalid line filled
    Hit,            ///< resident block referenced
    ReplaceUnsticky,///< conflict won because the line was not sticky
    ReplaceHitLast, ///< conflict won because h[x] granted an override
    Bypass,         ///< conflict lost; x passed through uncached
};

/** @return a short lowercase name for @p event. */
const char *fsmEventName(FsmEvent event);

/** @return true iff @p event writes h[x] (every arc but Bypass). */
constexpr bool
fsmWritesHitLast(FsmEvent event)
{
    return event != FsmEvent::Bypass;
}

/** @return the value @p event writes to h[x] when it writes one: the
 * hit-last override consumes the bit, every other arc sets it. */
constexpr bool
fsmNewHitLast(FsmEvent event)
{
    return event != FsmEvent::ReplaceHitLast;
}

/** @return true iff @p event displaced a valid resident block. */
constexpr bool
fsmEvicts(FsmEvent event)
{
    return event == FsmEvent::ReplaceUnsticky ||
           event == FsmEvent::ReplaceHitLast;
}

/**
 * Apply one access to block @p block on a line whose fields are
 * @p tag and @p sticky (a struct's members or two SoA lanes).
 *
 * The caller looks up h[x] beforehand, and afterwards applies the
 * h[x] write the returned arc calls for (fsmWritesHitLast,
 * fsmNewHitLast); the displaced block, when fsmEvicts, is the tag the
 * caller read before the call.
 *
 * @param tag the line's resident block, kAddrInvalid when invalid.
 * @param sticky the line's sticky counter.
 * @param block block number of the access (never kAddrInvalid).
 * @param h the stored h[x] for this block; read only on a conflict
 *        against a sticky line.
 * @param sticky_max saturation value of the sticky counter; the
 *        paper's machine uses 1. Callers check it is at least 1 once,
 *        at construction.
 * @return the arc that fired.
 */
inline FsmEvent
exclusionStep(Addr &tag, std::uint8_t &sticky, Addr block, bool h,
              std::uint8_t sticky_max)
{
    // On ReplaceUnsticky the incoming block "should have hit the last
    // time it was executed", so h[x] is set even though it missed (the
    // A,!s -> B,s transition). On ReplaceHitLast the bit overrides
    // stickiness but is consumed: the block must prove itself by
    // actually hitting before it can override again. The block is
    // never kAddrInvalid, so the hit test can go first, and a caller
    // that has just compared the tag folds the chain.
    const FsmEvent event = tag == block          ? FsmEvent::Hit
                           : tag == kAddrInvalid ? FsmEvent::ColdFill
                           : sticky == 0         ? FsmEvent::ReplaceUnsticky
                           : h                   ? FsmEvent::ReplaceHitLast
                                                 : FsmEvent::Bypass;
    // Bypass keeps the resident and decays its stickiness; every other
    // arc installs the block (a no-op on Hit) at full stickiness. The
    // update is mask arithmetic rather than a branch: in the SoA kernel
    // the bypass decision flips too irregularly to predict.
    const bool bypass = event == FsmEvent::Bypass;
    const Addr keep = 0 - static_cast<Addr>(bypass);
    tag = (tag & keep) | (block & ~keep);
    sticky = bypass ? static_cast<std::uint8_t>(sticky - 1) : sticky_max;
    return event;
}

/**
 * The exclusion rule of the L2 in the two-level hierarchy
 * (TwoLevelCache with l2DynamicExclusion): apply a fill of block
 * @p block from memory to an L2 line whose fields are @p valid,
 * @p tag and @p sticky, with h2 the L2's own hit-last bit for the
 * block. A valid line holding another block takes exclusionStep's
 * conflict arcs; the caller installs the block unless the arc is
 * Bypass, and writes h2 on the arcs that displace a resident
 * (fsmEvicts, with fsmNewHitLast).
 *
 * It differs from Figure 1 in three ways:
 *   - a cold L2 fill (an invalid line) installs without writing h2,
 *     where Figure 1's ColdFill sets h := 1;
 *   - only memory fills run it: a victim moving down from the L1
 *     installs unconditionally;
 *   - an L2 hit is not a step here: probeL2 re-arms the line
 *     (s := max, h2 := 1), as Figure 1's Hit arc does.
 *
 * @param valid whether the line holds a block (an exclusive-style
 *        promotion clears it and leaves the stale tag).
 * @return ColdFill for an invalid line, else exclusionStep's arc.
 */
inline FsmEvent
l2ExclusionStep(bool valid, Addr &tag, std::uint8_t &sticky, Addr block,
                bool h2, std::uint8_t sticky_max)
{
    if (!valid) {
        tag = block;
        sticky = sticky_max;
        return FsmEvent::ColdFill;
    }
    return exclusionStep(tag, sticky, block, h2, sticky_max);
}

} // namespace dynex

#endif // DYNEX_CACHE_EXCLUSION_FSM_H
