/**
 * @file
 * Two-level cache hierarchy with dynamic exclusion at the first level
 * and the hit-last storage options of Section 5 of the paper:
 *
 *  - Hashed:     h bits live in a direct-indexed table beside L1; L2
 *                never sees them. L1-resident lines are not allocated
 *                in L2 (exclusive-style), so L2 holds other lines.
 *  - AssumeHit:  h bits live in the L2 lines; an L2 miss defaults the
 *                bit to 1. Every fetched line allocates in L2
 *                (inclusive), so L2 gains nothing over direct-mapped.
 *  - AssumeMiss: h bits live in the L2 lines; an L2 miss defaults the
 *                bit to 0. Exclusive-style allocation like Hashed.
 *  - Ideal:      unbounded exact per-address bits (reference point).
 *
 * In all configurations the L1 keeps a copy of the resident block's h
 * bit and transfers it to the L2 entry when the block is replaced, as
 * the paper prescribes ("This copy is then transferred to the L2 cache
 * when the instruction in the L1 cache is replaced").
 */

#ifndef DYNEX_CACHE_HIERARCHY_H
#define DYNEX_CACHE_HIERARCHY_H

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/exclusion_fsm.h"
#include "cache/hit_last.h"
#include "util/zero_pages.h"

namespace dynex
{

/** Where hit-last bits live, and what an L2 miss implies about them. */
enum class HitLastPolicy
{
    Ideal,      ///< exact unbounded storage (upper bound)
    Hashed,     ///< bounded table beside L1
    AssumeHit,  ///< in L2; default 1 on L2 miss
    AssumeMiss, ///< in L2; default 0 on L2 miss
};

/** @return "ideal", "hashed", "assume-hit", or "assume-miss". */
const char *hitLastPolicyName(HitLastPolicy policy);

/** Configuration of a TwoLevelCache. */
struct HierarchyConfig
{
    CacheGeometry l1;
    CacheGeometry l2;

    /** False turns L1 into a conventional direct-mapped cache (the
     * baseline hierarchy of Figures 7-9). */
    bool l1DynamicExclusion = true;

    /**
     * Extension beyond the paper: run the exclusion FSM at the L2 as
     * well, bypassing memory fills that would thrash a sticky L2
     * resident (L1 victim installs always store — those lines have
     * proven their worth). Uses a private ideal hit-last store;
     * intended for the exclusive-style policies (Hashed/Ideal), where
     * the L2 owns distinct content worth protecting.
     */
    bool l2DynamicExclusion = false;

    HitLastPolicy policy = HitLastPolicy::Hashed;

    /** Sticky counter saturation (1 = the paper's machine). */
    std::uint8_t stickyMax = 1;

    /** Last-line buffer in front of L1 (Section 6); enable for line
     * sizes above one instruction. */
    bool useLastLine = false;

    /** For Hashed: hit-last table entries per L1 line (the paper finds
     * 4 sufficient). */
    std::uint32_t hashedEntriesPerLine = 4;

    /**
     * Allocate memory fills into L2 even when L1 stores the line.
     * Defaults by policy: AssumeHit is inclusive (h bits must be
     * findable in L2); Hashed/AssumeMiss are exclusive-style, letting
     * L2 hold other lines. Exposed for the ablation bench.
     */
    bool inclusiveL2() const
    {
        return !l1DynamicExclusion || policy == HitLastPolicy::AssumeHit;
    }
};

/** Statistics of one simulated hierarchy run. */
struct HierarchyStats
{
    CacheStats l1;
    CacheStats l2; ///< accesses = L1 misses presented to L2

    /** L2 misses per *total* reference (global miss rate), the
     * denominator Figure 8 uses so curves are comparable. */
    double
    l2GlobalMissRate() const
    {
        return l1.accesses ? static_cast<double>(l2.misses) / l1.accesses
                           : 0.0;
    }

    friend bool operator==(const HierarchyStats &,
                           const HierarchyStats &) = default;
};

/**
 * A two-level hierarchy of direct-mapped caches with dynamic exclusion
 * (optionally) at L1. Not a CacheModel: its two levels have distinct
 * statistics and the cross-level traffic (victim installs, h-bit
 * transfers) does not fit the single-cache interface.
 */
class TwoLevelCache
{
  public:
    explicit TwoLevelCache(const HierarchyConfig &config);

    /** Present one reference; @p tick is its trace position. */
    void access(const MemRef &ref, Tick tick);

    /** Invalidate everything and zero counters. */
    void reset();

    const HierarchyStats &stats() const { return statsData; }
    const HierarchyConfig &config() const { return cfg; }

    std::string name() const;

    /** @return true iff @p addr's block is resident in L1. */
    bool l1Contains(Addr addr) const;

    /** @return true iff @p addr's block is resident in L2. */
    bool l2Contains(Addr addr) const;

  private:
    /** All-zero bytes when value-initialized, as ZeroPageArray needs. */
    struct L2Line
    {
        Addr tag = 0;
        bool valid = false;
        bool hitLast = false;
        std::uint8_t sticky = 0; ///< used when l2DynamicExclusion
    };

    /** Look up h[block] according to the configured policy.
     * @param l2_hit whether the block is currently in L2. */
    bool lookupHitLast(Addr block, bool l2_hit) const;

    /** Record h[block] for policies with L1-side tables. */
    void updateHitLast(Addr block, bool value);

    /** Install @p block into L2 (used for fills and victim installs).
     * @param forced victim installs bypass the L2 FSM. */
    void installL2(Addr block, bool hit_last, bool forced = true);

    HierarchyConfig cfg;
    std::vector<ExclusionLine> l1Lines;
    /**
     * On anonymous zero pages: at large L2/L1 ratios the array runs to
     * megabytes, and resident memory should follow the sets a trace
     * touches. Sanitizers do not guard mapped pages, so bounds rest on
     * every index being masked, block & (numSets - 1).
     */
    ZeroPageArray<L2Line> l2Lines;
    std::unique_ptr<HitLastStore> sideStore; ///< Ideal/Hashed policies
    std::unique_ptr<HitLastStore> l2HitLast; ///< l2DynamicExclusion
    HierarchyStats statsData;
    Addr lastBlock = kAddrInvalid;
};

} // namespace dynex

#endif // DYNEX_CACHE_HIERARCHY_H
