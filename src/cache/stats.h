/**
 * @file
 * Per-cache event counters and derived rates.
 */

#ifndef DYNEX_CACHE_STATS_H
#define DYNEX_CACHE_STATS_H

#include <string>

#include "util/types.h"

namespace dynex
{

/**
 * Event counters accumulated by a cache model. "Bypasses" counts misses
 * the replacement policy chose not to allocate (the dynamic-exclusion
 * pass-through and the optimal cache's retain decision); they are still
 * misses.
 */
struct CacheStats
{
    Count accesses = 0;   ///< total references presented
    Count hits = 0;       ///< references satisfied by the cache
    Count misses = 0;     ///< references not satisfied (== fills + bypasses)
    Count coldMisses = 0; ///< misses to an invalid (never-filled) line
    Count fills = 0;      ///< misses that allocated a line
    Count bypasses = 0;   ///< misses that did not allocate
    Count evictions = 0;  ///< valid lines displaced by fills

    /** misses / accesses; 0 when no accesses. */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** Miss rate in percent. */
    double
    missPercent() const
    {
        return 100.0 * missRate();
    }

    /** hits / accesses; 0 when no accesses. */
    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) / accesses : 0.0;
    }

    /** Zero every counter. */
    void reset() { *this = CacheStats{}; }

    /** Component-wise sum. */
    CacheStats &operator+=(const CacheStats &other);

    friend bool operator==(const CacheStats &, const CacheStats &) = default;

    /** One-line rendering for logs and examples. */
    std::string toString() const;
};

} // namespace dynex

#endif // DYNEX_CACHE_STATS_H
