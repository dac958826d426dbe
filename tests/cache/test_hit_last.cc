/** @file Unit tests of the hit-last storage backends. */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/hit_last.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

TEST(IdealHitLast, DefaultsToInitialValue)
{
    IdealHitLastStore cold(false);
    EXPECT_FALSE(cold.lookup(0x123));
    IdealHitLastStore warm(true);
    EXPECT_TRUE(warm.lookup(0x123));
}

TEST(IdealHitLast, StoresPerBlockExactly)
{
    IdealHitLastStore store(false);
    store.update(1, true);
    store.update(2, false);
    EXPECT_TRUE(store.lookup(1));
    EXPECT_FALSE(store.lookup(2));
    EXPECT_FALSE(store.lookup(3));
    store.update(1, false);
    EXPECT_FALSE(store.lookup(1));
}

TEST(IdealHitLast, ResetRestoresInitialValue)
{
    IdealHitLastStore store(true);
    store.update(7, false);
    EXPECT_FALSE(store.lookup(7));
    store.reset();
    EXPECT_TRUE(store.lookup(7));
}

TEST(HashedHitLast, AliasesBlocksSharingLowBits)
{
    HashedHitLastStore store(8, false);
    store.update(0x3, true);
    EXPECT_TRUE(store.lookup(0x3));
    EXPECT_TRUE(store.lookup(0x3 + 8)) << "8 entries: blocks 8 apart alias";
    EXPECT_FALSE(store.lookup(0x4));
    store.update(0x3 + 8, false);
    EXPECT_FALSE(store.lookup(0x3)) << "alias write clobbers";
}

TEST(HashedHitLast, TableSizeIsVisible)
{
    HashedHitLastStore store(1024, false);
    EXPECT_EQ(store.tableEntries(), 1024u);
}

TEST(HashedHitLast, ResetClearsToInitialValue)
{
    HashedHitLastStore store(16, true);
    store.update(5, false);
    EXPECT_FALSE(store.lookup(5));
    store.reset();
    EXPECT_TRUE(store.lookup(5));
}

TEST(HashedHitLastDeathTest, RejectsNonPowerOfTwoTables)
{
    EXPECT_DEATH(HashedHitLastStore store(12, false), "power of two");
}

// The stores were reimplemented as flat bit tables (a two-level
// page-table bitmap for the ideal store, packed uint64_t words for the
// hashed store); the tests below pin their semantics to the original
// map/vector reference implementations over randomized workloads.

/** The original IdealHitLastStore semantics, verbatim. */
struct MapReferenceStore
{
    std::unordered_map<Addr, bool> bits;
    bool initialValue;

    explicit MapReferenceStore(bool initial) : initialValue(initial) {}

    bool
    lookup(Addr block) const
    {
        const auto it = bits.find(block);
        return it == bits.end() ? initialValue : it->second;
    }

    void update(Addr block, bool value) { bits[block] = value; }
};

TEST(IdealHitLast, MatchesMapReferenceOverRandomWorkload)
{
    for (const bool initial : {false, true}) {
        IdealHitLastStore store(initial);
        MapReferenceStore reference(initial);
        Rng rng(0x1dea1);
        for (int step = 0; step < 200000; ++step) {
            // Mix dense low blocks (instruction-like), a sparse far
            // region, and blocks beyond the direct-directory range.
            Addr block;
            switch (rng.nextBelow(4)) {
              case 0:
                block = rng.nextBelow(1 << 14);
                break;
              case 1:
                block = 0x400000 + rng.nextBelow(1 << 10);
                break;
              case 2:
                block = (Addr{1} << 40) + rng.nextBelow(256);
                break;
              default:
                block = rng.nextBelow(1 << 20);
                break;
            }
            if (rng.nextBelow(2) == 0) {
                const bool value = rng.nextBelow(2) == 0;
                store.update(block, value);
                reference.update(block, value);
            }
            ASSERT_EQ(store.lookup(block), reference.lookup(block))
                << "initial=" << initial << " block=0x" << std::hex
                << block;
        }
    }
}

TEST(IdealHitLast, InlineUpdateMatchesMapReferenceAcrossLeavesAndOverflow)
{
    // update() writes in line only into an already-materialized leaf;
    // the first write to a leaf, a write past the directory's end and
    // a write at or above 2^36 take the out-of-line path. Walk blocks
    // in the order that alternates the two, then read every block
    // touched and its neighbours back against the map.
    constexpr Addr kLeaf = Addr{1} << 16;
    constexpr Addr kOverflow = Addr{1} << 36;
    const Addr anchors[] = {
        0,                 // first leaf
        kLeaf - 1,         // last block of the first leaf
        kLeaf,             // second leaf, directory grows by one
        7 * kLeaf + 5,     // directory grows past empty leaves
        3 * kLeaf,         // leaf inside the directory, never built
        kOverflow - 1,     // last block the directory holds
        kOverflow,         // first overflow block
        kOverflow + kLeaf, // overflow, would-be second leaf
        Addr{1} << 50,
    };
    for (const bool initial : {false, true}) {
        IdealHitLastStore store(initial);
        MapReferenceStore reference(initial);
        Rng rng(0x1eaf);
        std::vector<Addr> touched;
        for (int round = 0; round < 4; ++round) {
            for (const Addr anchor : anchors) {
                for (int i = 0; i < 64; ++i) {
                    const Addr block = anchor + rng.nextBelow(130);
                    const bool value = rng.nextBool(0.5);
                    store.update(block, value);
                    reference.update(block, value);
                    touched.push_back(block);
                    ASSERT_EQ(store.lookup(block), value)
                        << "initial=" << initial << " block=0x"
                        << std::hex << block;
                }
            }
        }
        for (const Addr block : touched) {
            for (const Addr probe : {block - 1, block, block + 1, block + 64})
                ASSERT_EQ(store.lookup(probe), reference.lookup(probe))
                    << "initial=" << initial << " block=0x" << std::hex
                    << probe;
        }
        store.reset();
        for (const Addr block : touched)
            ASSERT_EQ(store.lookup(block), initial);
    }
}

TEST(IdealHitLast, NeverSeenBlocksKeepInitialValueEverywhere)
{
    IdealHitLastStore warm(true);
    warm.update(0, false); // materializes the first leaf
    EXPECT_FALSE(warm.lookup(0));
    EXPECT_TRUE(warm.lookup(1)) << "same leaf, never updated";
    EXPECT_TRUE(warm.lookup(1 << 16)) << "leaf never materialized";
    EXPECT_TRUE(warm.lookup(Addr{1} << 50)) << "beyond direct range";
}

/** The original HashedHitLastStore semantics, verbatim. */
struct VectorReferenceStore
{
    std::vector<bool> bits;
    std::uint64_t mask;

    VectorReferenceStore(std::uint64_t entries, bool initial)
        : bits(entries, initial), mask(entries - 1)
    {}

    bool lookup(Addr block) const { return bits[block & mask]; }
    void update(Addr block, bool value) { bits[block & mask] = value; }
};

TEST(HashedHitLast, MatchesVectorReferenceIncludingAliasing)
{
    for (const bool initial : {false, true}) {
        for (const std::uint64_t entries : {8ull, 64ull, 4096ull}) {
            HashedHitLastStore store(entries, initial);
            VectorReferenceStore reference(entries, initial);
            Rng rng(0xa11a5);
            for (int step = 0; step < 50000; ++step) {
                // Blocks far beyond the table force aliasing.
                const Addr block = rng.nextBelow(16 * entries);
                if (rng.nextBelow(2) == 0) {
                    const bool value = rng.nextBelow(2) == 0;
                    store.update(block, value);
                    reference.update(block, value);
                }
                ASSERT_EQ(store.lookup(block), reference.lookup(block))
                    << "entries=" << entries << " initial=" << initial
                    << " block=" << block;
            }
        }
    }
}

TEST(HashedHitLast, SubWordTablesPackCorrectly)
{
    // 8 entries live in a fraction of one uint64_t word.
    HashedHitLastStore store(8, false);
    for (Addr block = 0; block < 8; ++block)
        store.update(block, block % 2 == 0);
    for (Addr block = 0; block < 8; ++block)
        EXPECT_EQ(store.lookup(block), block % 2 == 0) << block;
}

} // namespace
} // namespace dynex
