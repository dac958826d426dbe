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
    tags.assign(geo.numLines(), 0);
    valid.assign(geo.numLines(), false);
}

void
DirectMappedCache::reset()
{
    std::fill(valid.begin(), valid.end(), false);
    resetStats();
}

bool
DirectMappedCache::contains(Addr addr) const
{
    const Addr block = blockOf(addr);
    const std::uint64_t set = setOfBlock(block);
    return valid[set] && tags[set] == block;
}

Addr
DirectMappedCache::residentBlock(std::uint64_t set) const
{
    return valid[set] ? tags[set] : kAddrInvalid;
}

AccessOutcome
DirectMappedCache::doAccess(const MemRef &ref, Tick)
{
    return stepBlock(blockOf(ref.addr));
}

} // namespace dynex
