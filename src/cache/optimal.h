/**
 * @file
 * The optimal direct-mapped cache: Belady replacement generalized with
 * a bypass option, the paper's upper-bound reference point. The cache
 * stores blocks in the same line a direct-mapped cache would, but on a
 * conflict it retains whichever of {resident, incoming} is referenced
 * sooner in the future, passing the other directly to the CPU.
 */

#ifndef DYNEX_CACHE_OPTIMAL_H
#define DYNEX_CACHE_OPTIMAL_H

#include <vector>

#include "cache/cache.h"
#include "trace/next_use.h"
#include "util/logging.h"

namespace dynex
{

/** One optimal-cache line: tag and resident next-use share a 16-byte
 * lane, so the kernel's random probe touches one cache line instead of
 * two parallel arrays. */
struct OptLane
{
    Addr tag = kAddrInvalid; ///< resident block; kAddrInvalid if none
    Tick next = 0;           ///< resident block's next-use tick
};

/** Which optimal-with-bypass transition fired. */
enum class OptEvent : std::uint8_t
{
    ColdFill, ///< invalid line filled
    Hit,      ///< resident block referenced
    Replace,  ///< incoming block is referenced sooner: resident evicted
    Bypass,   ///< resident is referenced sooner: incoming passed through
};

/**
 * The optimal policy's per-line step: retain whichever of {resident,
 * incoming} is referenced sooner. Shared by OptimalDirectMappedCache
 * and the SoA replay kernel.
 *
 * Hits refresh the resident next-use; cold misses and won conflicts
 * install the incoming block; lost conflicts bypass. The update is
 * mask arithmetic, not a branch: the retain decision is data-dependent
 * and bypass-heavy legs flip it irregularly, so a branch here
 * mispredicts constantly.
 *
 * @param lane the line; the displaced block, on Replace, is the tag
 *        the caller read before the call.
 * @param block block number of the access (never kAddrInvalid).
 * @param next the tick of @p block's next reference (or run start).
 * @return the transition that fired.
 */
inline OptEvent
optimalStep(OptLane &lane, Addr block, Tick next)
{
    const bool hit = lane.tag == block;
    const bool cold = lane.tag == kAddrInvalid;
    // Ties are impossible: two distinct blocks cannot share a future
    // position.
    const bool wins = next < lane.next;
    const bool write = hit | cold | wins;
    const Addr wmask = 0 - static_cast<Addr>(write);
    lane.tag = (block & wmask) | (lane.tag & ~wmask);
    lane.next = (next & wmask) | (lane.next & ~wmask);
    return hit    ? OptEvent::Hit
           : cold ? OptEvent::ColdFill
           : wins ? OptEvent::Replace
                  : OptEvent::Bypass;
}

/**
 * Optimal direct-mapped cache with bypass.
 *
 * With a single line per set, retaining the block whose next reference
 * is nearest maximizes hits (the exchange argument of Belady's proof
 * applies per set, and bypass makes any retain decision feasible), so
 * the greedy rule implemented here is exactly optimal.
 *
 * For line sizes above one instruction, runs of consecutive references
 * to the same block are served by an implicit last-line register (the
 * same assist Section 6 of the paper grants dynamic exclusion), and
 * retain decisions compare next *run starts*; pass a RunStart-mode
 * index and enable @p use_last_line for that configuration.
 *
 * The NextUseIndex must have been built over the exact trace that will
 * be replayed, at this cache's line granularity, and access() must be
 * called with the reference's true trace position.
 */
class OptimalDirectMappedCache final : public CacheModel
{
  public:
    /**
     * @param geometry must have ways == 1.
     * @param index next-use oracle for the trace to be replayed;
     *        must outlive the cache.
     * @param use_last_line serve consecutive same-block references from
     *        a last-line register (required when index mode is
     *        RunStart).
     */
    OptimalDirectMappedCache(const CacheGeometry &geometry,
                             const NextUseIndex &index,
                             bool use_last_line = false);

    void reset() override;
    std::string name() const override { return "optimal-direct-mapped"; }

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    AccessOutcome
    stepBlock(Addr block, Tick tick)
    {
        DYNEX_ASSERT(tick < oracle->size(), "tick ", tick,
                     " beyond indexed trace of ", oracle->size());

        AccessOutcome outcome;
        if (lastLineEnabled && block == lastBlock) {
            // Within-run reference: served by the last-line register
            // without touching (or re-deciding) the cache line.
            outcome.hit = true;
            return outcome;
        }
        if (lastLineEnabled)
            lastBlock = block;

        OptLane &lane = lanes[setOfBlock(block)];
        const Addr resident = lane.tag;
        const OptEvent event =
            optimalStep(lane, block, oracle->nextUse(tick));
        outcome.hit = event == OptEvent::Hit;
        outcome.bypassed = event == OptEvent::Bypass;
        outcome.evicted = event == OptEvent::Replace;
        outcome.filled = outcome.evicted || event == OptEvent::ColdFill;
        if (outcome.evicted)
            outcome.victimBlock = resident;
        if (event == OptEvent::ColdFill)
            noteColdMiss();
        return outcome;
    }

    const NextUseIndex *oracle;
    std::vector<OptLane> lanes;
    bool lastLineEnabled;
    Addr lastBlock = kAddrInvalid;
};

/**
 * Belady replacement with bypass for set-associative caches: on a
 * miss in a full set, the block with the farthest next reference among
 * {residents, incoming} is the one denied residency (evicted, or the
 * incoming block bypassed). For one way this reduces to
 * OptimalDirectMappedCache; for multiple ways it is the standard
 * optimal eviction bound extended with bypass.
 */
class OptimalSetAssocCache final : public CacheModel
{
  public:
    /**
     * @param geometry any associativity (ways == 0 for fully
     *        associative).
     * @param index next-use oracle over the trace to be replayed
     *        (AnyReference mode).
     */
    OptimalSetAssocCache(const CacheGeometry &geometry,
                         const NextUseIndex &index);

    void reset() override;
    std::string name() const override { return "optimal-set-assoc"; }

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    const NextUseIndex *oracle;
    std::vector<Addr> tags;
    std::vector<bool> valid;
    std::vector<Tick> residentNextUse;
    std::uint32_t waysPerSet;
};

} // namespace dynex

#endif // DYNEX_CACHE_OPTIMAL_H
