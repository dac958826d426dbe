/**
 * @file
 * Victim cache (Jouppi, ISCA 1990): a direct-mapped cache backed by a
 * small fully-associative buffer holding recent victims. The paper's
 * related-work section argues victim caches suit data references while
 * dynamic exclusion suits instruction references; the ablation bench
 * tests exactly that claim.
 */

#ifndef DYNEX_CACHE_VICTIM_H
#define DYNEX_CACHE_VICTIM_H

#include <list>
#include <vector>

#include "cache/cache.h"

namespace dynex
{

/** The largest victim buffer any input may ask for (the CLI's
 * --victim, a REPLAY request's victimEntries): far beyond the paper's
 * few entries, and small enough that the buffer's up-front reservation
 * cannot exhaust memory. */
inline constexpr std::uint32_t kMaxVictimEntries = 65536;

/**
 * Direct-mapped cache plus an n-entry fully-associative victim buffer
 * with LRU replacement. A reference that misses the main cache but
 * hits the victim buffer swaps the two lines and counts as a hit
 * (Jouppi's accounting: the victim hit avoids the memory fetch).
 */
class VictimCache final : public CacheModel
{
  public:
    /**
     * @param geometry the main (direct-mapped) cache shape.
     * @param victim_entries number of fully-associative victim lines.
     */
    VictimCache(const CacheGeometry &geometry, std::uint32_t victim_entries);

    void reset() override;
    std::string name() const override;

    /** Hits supplied by the victim buffer (subset of stats().hits). */
    Count victimHits() const { return victimHitCount; }

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    struct VictimEntry
    {
        Addr block;
        Tick lastUse;
    };

    /** Insert @p block into the victim buffer, evicting LRU if full. */
    void insertVictim(Addr block, Tick tick);

    std::vector<Addr> tags;
    std::vector<bool> valid;
    std::vector<VictimEntry> buffer;
    std::uint32_t capacity;
    Count victimHitCount = 0;
};

} // namespace dynex

#endif // DYNEX_CACHE_VICTIM_H
