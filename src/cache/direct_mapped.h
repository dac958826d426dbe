/**
 * @file
 * The conventional direct-mapped cache: the paper's baseline. Always
 * allocates on miss (most-recent-reference replacement).
 */

#ifndef DYNEX_CACHE_DIRECT_MAPPED_H
#define DYNEX_CACHE_DIRECT_MAPPED_H

#include <vector>

#include "cache/cache.h"

namespace dynex
{

/**
 * The direct-mapped policy's per-line step: every reference installs
 * its block (most-recent-reference replacement). Shared by
 * DirectMappedCache, the hierarchy's conventional L1 and the SoA
 * replay kernel.
 *
 * @param tag the line's resident block, kAddrInvalid when invalid.
 * @param block block number of the access (never kAddrInvalid).
 * @return the block the line held before: @p block on a hit,
 *         kAddrInvalid on a cold fill, the victim otherwise.
 */
inline Addr
directMappedStep(Addr &tag, Addr block)
{
    const Addr resident = tag;
    tag = block;
    return resident;
}

/**
 * A direct-mapped cache with allocate-on-miss. This is the reference
 * point every figure in the paper measures improvement against.
 */
class DirectMappedCache final : public CacheModel
{
  public:
    /** @param geometry must have ways == 1. */
    explicit DirectMappedCache(const CacheGeometry &geometry);

    void reset() override;
    std::string name() const override { return "direct-mapped"; }

    /** @return true iff @p addr's block is currently resident. */
    bool contains(Addr addr) const;

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    AccessOutcome
    stepBlock(Addr block)
    {
        const Addr resident =
            directMappedStep(tags[setOfBlock(block)], block);

        AccessOutcome outcome;
        if (resident == block) {
            outcome.hit = true;
            return outcome;
        }
        if (resident == kAddrInvalid) {
            noteColdMiss();
        } else {
            outcome.evicted = true;
            outcome.victimBlock = resident;
        }
        outcome.filled = true;
        return outcome;
    }

    /** Resident block number per line; kAddrInvalid marks invalid. */
    std::vector<Addr> tags;
};

} // namespace dynex

#endif // DYNEX_CACHE_DIRECT_MAPPED_H
