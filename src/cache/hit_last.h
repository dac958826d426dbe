/**
 * @file
 * Storage backends for the per-address hit-last bits of the dynamic
 * exclusion FSM (Section 5 of the paper).
 *
 * "In principle, there is one hit-last bit in memory associated with
 * each instruction" — the IdealHitLastStore. In hardware the bits must
 * live somewhere finite: a small direct-indexed table beside the L1
 * (HashedHitLastStore, the paper's "hashed" option) or inside the L2
 * lines (handled by TwoLevelCache with the assume-hit / assume-miss
 * fallbacks for L2 misses).
 *
 * Both concrete stores sit on the simulator's per-reference hot path,
 * so they are flat bit tables rather than node-based containers: the
 * ideal store is a two-level direct-indexed page-table bitmap (one
 * shift + one pointer chase per lookup, no hashing), and the hashed
 * store packs its bits into uint64_t words.
 */

#ifndef DYNEX_CACHE_HIT_LAST_H
#define DYNEX_CACHE_HIT_LAST_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace dynex
{

/**
 * Lookup/update interface for hit-last bits, keyed by block number.
 * Implementations may alias distinct blocks onto the same bit.
 */
class HitLastStore
{
  public:
    virtual ~HitLastStore() = default;

    /** @return the stored (or defaulted) h[block]. */
    virtual bool lookup(Addr block) const = 0;

    /** Record h[block] := value. */
    virtual void update(Addr block, bool value) = 0;

    /** Forget everything (back to the initial value). */
    virtual void reset() = 0;

    virtual std::string name() const = 0;
};

/**
 * Unbounded per-address storage: one exact bit per block ever seen,
 * with a configurable initial value for never-seen blocks. This is the
 * model behind the paper's single-level results (Figures 3-5, 11-15).
 *
 * Layout: a directory of fixed-size leaf bitmaps, direct-indexed by
 * the block's high bits. A leaf is materialized (pre-filled with the
 * initial value) the first time any of its 2^16 blocks is updated, so
 * dense instruction footprints cost one bit per block while the
 * address space stays sparse-friendly. Blocks beyond the direct
 * directory range (far above any trace this library generates) spill
 * into an exact map so semantics stay unbounded.
 */
class IdealHitLastStore final : public HitLastStore
{
  public:
    /** @param initial_value h for blocks never updated; the paper's
     * cold state. False reproduces the cold-start training misses the
     * paper notes for nasa7/tomcatv. */
    explicit IdealHitLastStore(bool initial_value = false)
        : initialValue(initial_value)
    {}

    bool
    lookup(Addr block) const override
    {
        const Addr top = block >> kLeafBits;
        if (top < leaves.size()) {
            const Leaf *leaf = leaves[top].get();
            if (!leaf)
                return initialValue;
            const std::uint64_t bit = block & kLeafMask;
            return ((*leaf)[bit >> 6] >> (bit & 63)) & 1;
        }
        if (top < kMaxDirectLeaves || overflow.empty())
            return initialValue;
        const auto it = overflow.find(block);
        return it == overflow.end() ? initialValue : it->second;
    }

    void
    update(Addr block, bool value) override
    {
        // Fast path: the block's leaf is already materialized (every
        // reference after a leaf's first). Directory growth, leaf
        // materialization and the overflow map stay out of line.
        const Addr top = block >> kLeafBits;
        if (top < leaves.size()) {
            if (Leaf *leaf = leaves[top].get()) {
                setBit(*leaf, block & kLeafMask, value);
                return;
            }
        }
        updateSlow(block, value);
    }

    void
    reset() override
    {
        leaves.clear();
        overflow.clear();
    }

    std::string name() const override { return "ideal"; }

  private:
    /** 2^16 bits per leaf: 8KB, one page-table level for any trace. */
    static constexpr unsigned kLeafBits = 16;
    static constexpr std::uint64_t kLeafMask =
        (std::uint64_t{1} << kLeafBits) - 1;
    static constexpr std::size_t kLeafWords =
        (std::size_t{1} << kLeafBits) / 64;
    /** Direct directory cap (8MB of pointers): blocks above
     * 2^36 take the exact-map fallback instead of exploding the
     * directory. */
    static constexpr Addr kMaxDirectLeaves = Addr{1} << 20;

    using Leaf = std::array<std::uint64_t, kLeafWords>;

    static void
    setBit(Leaf &leaf, std::uint64_t bit, bool value)
    {
        const std::uint64_t one = std::uint64_t{1} << (bit & 63);
        if (value)
            leaf[bit >> 6] |= one;
        else
            leaf[bit >> 6] &= ~one;
    }

    /** update() for a block whose leaf is not materialized: grows the
     * directory, materializes the leaf, or writes the overflow map. */
    void updateSlow(Addr block, bool value);

    std::vector<std::unique_ptr<Leaf>> leaves;
    std::unordered_map<Addr, bool> overflow;
    bool initialValue;
};

/**
 * A direct-indexed bit table of bounded size: block i uses bit
 * (i mod table_entries). Aliasing between blocks that share a bit is
 * deliberate — it models the paper's hardware option of "four hit-last
 * bits for each cache line" kept entirely at the first level. Bits are
 * packed 64 per word.
 */
class HashedHitLastStore final : public HitLastStore
{
  public:
    /**
     * @param table_entries number of bits (power of two).
     * @param initial_value h for never-updated slots.
     */
    explicit HashedHitLastStore(std::uint64_t table_entries,
                                bool initial_value = false);

    bool
    lookup(Addr block) const override
    {
        const std::uint64_t bit = block & mask;
        return (words[bit >> 6] >> (bit & 63)) & 1;
    }

    void
    update(Addr block, bool value) override
    {
        const std::uint64_t bit = block & mask;
        const std::uint64_t one = std::uint64_t{1} << (bit & 63);
        if (value)
            words[bit >> 6] |= one;
        else
            words[bit >> 6] &= ~one;
    }

    void reset() override;
    std::string name() const override { return "hashed"; }

    std::uint64_t tableEntries() const { return entries; }

  private:
    std::vector<std::uint64_t> words;
    std::uint64_t entries;
    std::uint64_t mask;
    bool initialValue;
};

} // namespace dynex

#endif // DYNEX_CACHE_HIT_LAST_H
