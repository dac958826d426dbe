#include "cache/direct_mapped.h"

#include "util/logging.h"

namespace dynex
{

DirectMappedCache::DirectMappedCache(const CacheGeometry &geometry)
    : CacheModel(geometry)
{
    DYNEX_ASSERT(geometry.ways == 1,
                 "DirectMappedCache requires ways == 1, got ",
                 geometry.ways);
    tags.assign(geo.numLines(), kAddrInvalid);
}

void
DirectMappedCache::reset()
{
    std::fill(tags.begin(), tags.end(), kAddrInvalid);
    resetStats();
}

bool
DirectMappedCache::contains(Addr addr) const
{
    const Addr block = blockOf(addr);
    return tags[setOfBlock(block)] == block;
}

AccessOutcome
DirectMappedCache::doAccess(const MemRef &ref, Tick)
{
    return stepBlock(blockOf(ref.addr));
}

} // namespace dynex
