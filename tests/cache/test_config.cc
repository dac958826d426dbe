/** @file Unit tests of CacheGeometry arithmetic. */

#include <gtest/gtest.h>

#include "cache/config.h"

namespace dynex
{
namespace
{

TEST(CacheGeometry, DirectMappedDerivedValues)
{
    const auto geo = CacheGeometry::directMapped(32 * 1024, 16);
    EXPECT_EQ(geo.numLines(), 2048u);
    EXPECT_EQ(geo.numSets(), 2048u);
    EXPECT_EQ(geo.linesPerSet(), 1u);
    EXPECT_EQ(geo.lineShift(), 4u);
}

TEST(CacheGeometry, SetAssociativeDerivedValues)
{
    const auto geo = CacheGeometry::setAssociative(8 * 1024, 32, 4);
    EXPECT_EQ(geo.numLines(), 256u);
    EXPECT_EQ(geo.numSets(), 64u);
    EXPECT_EQ(geo.linesPerSet(), 4u);
}

TEST(CacheGeometry, FullyAssociativeHasOneSet)
{
    const auto geo = CacheGeometry::fullyAssociative(1024, 16);
    EXPECT_EQ(geo.numSets(), 1u);
    EXPECT_EQ(geo.linesPerSet(), 64u);
}

TEST(CacheGeometry, BlockAndSetMapping)
{
    const auto geo = CacheGeometry::directMapped(64, 16); // 4 sets
    EXPECT_EQ(geo.blockOf(0x0), 0u);
    EXPECT_EQ(geo.blockOf(0xf), 0u);
    EXPECT_EQ(geo.blockOf(0x10), 1u);
    EXPECT_EQ(geo.setOf(0x10), 1u);
    EXPECT_EQ(geo.setOf(0x40), 0u) << "wraps around the 4 sets";
    EXPECT_EQ(geo.setOf(0x7c), 3u);
}

TEST(CacheGeometry, ToStringVariants)
{
    EXPECT_EQ(CacheGeometry::directMapped(32 * 1024, 16).toString(),
              "32KB/16B direct-mapped");
    EXPECT_EQ(CacheGeometry::setAssociative(8 * 1024, 32, 4).toString(),
              "8KB/32B 4-way");
    EXPECT_EQ(CacheGeometry::fullyAssociative(1024, 16).toString(),
              "1KB/16B fully-associative");
}

TEST(CacheGeometryDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_DEATH(CacheGeometry::directMapped(3000, 16).validate(),
                 "power of two");
    EXPECT_DEATH(CacheGeometry::directMapped(4096, 12).validate(),
                 "power of two");
    EXPECT_DEATH(CacheGeometry::setAssociative(4096, 16, 3).validate(),
                 "power of two");
}

TEST(CacheGeometryDeathTest, RejectsLineLargerThanCache)
{
    CacheGeometry geo{16, 64, 1};
    EXPECT_DEATH(geo.validate(), "line larger than cache");
}

TEST(CacheGeometryDeathTest, RejectsOneByteLines)
{
    // At one-byte lines address ~0 is block ~0, the kAddrInvalid tag
    // every model marks an invalid line with.
    EXPECT_DEATH(CacheGeometry::directMapped(4, 1), "at least 2 bytes");
    CacheGeometry geo{4, 1, 1};
    EXPECT_DEATH(geo.validate(), "at least 2 bytes");
}

TEST(CacheGeometry, EqualityComparesAllFields)
{
    const auto a = CacheGeometry::directMapped(1024, 16);
    auto b = a;
    EXPECT_TRUE(a == b);
    b.ways = 0;
    EXPECT_FALSE(a == b);
}

} // namespace
} // namespace dynex
