#include "cache/config.h"

#include <sstream>

#include "util/logging.h"
#include "util/string_utils.h"

namespace dynex
{

CacheGeometry
CacheGeometry::directMapped(std::uint64_t size_bytes,
                            std::uint32_t line_bytes)
{
    CacheGeometry geo{size_bytes, line_bytes, 1};
    geo.validate();
    return geo;
}

CacheGeometry
CacheGeometry::setAssociative(std::uint64_t size_bytes,
                              std::uint32_t line_bytes,
                              std::uint32_t n_ways)
{
    CacheGeometry geo{size_bytes, line_bytes, n_ways};
    geo.validate();
    return geo;
}

CacheGeometry
CacheGeometry::fullyAssociative(std::uint64_t size_bytes,
                                std::uint32_t line_bytes)
{
    CacheGeometry geo{size_bytes, line_bytes, 0};
    geo.validate();
    return geo;
}

void
CacheGeometry::validate() const
{
    DYNEX_ASSERT(isPowerOfTwo(sizeBytes), "cache size must be a power of "
                 "two, got ", sizeBytes);
    DYNEX_ASSERT(isPowerOfTwo(lineBytes), "line size must be a power of "
                 "two, got ", lineBytes);
    // Every model marks an invalid line with the kAddrInvalid tag; at
    // two bytes or more no block number can equal it.
    DYNEX_ASSERT(lineBytes >= 2, "line size must be at least 2 bytes, "
                 "got ", lineBytes);
    DYNEX_ASSERT(lineBytes <= sizeBytes, "line larger than cache");
    if (ways != 0) {
        DYNEX_ASSERT(isPowerOfTwo(ways), "associativity must be a power "
                     "of two, got ", ways);
        DYNEX_ASSERT(ways <= numLines(), "more ways than lines");
    }
}

std::string
CacheGeometry::toString() const
{
    std::ostringstream oss;
    oss << formatSize(sizeBytes) << "/" << formatSize(lineBytes) << " ";
    if (ways == 0)
        oss << "fully-associative";
    else if (ways == 1)
        oss << "direct-mapped";
    else
        oss << ways << "-way";
    return oss.str();
}

} // namespace dynex
