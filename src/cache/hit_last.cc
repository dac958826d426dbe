#include "cache/hit_last.h"

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

void
IdealHitLastStore::updateSlow(Addr block, bool value)
{
    const Addr top = block >> kLeafBits;
    if (top >= kMaxDirectLeaves) {
        overflow[block] = value;
        return;
    }
    if (top >= leaves.size())
        leaves.resize(static_cast<std::size_t>(top) + 1);
    auto &leaf = leaves[static_cast<std::size_t>(top)];
    if (!leaf) {
        leaf = std::make_unique<Leaf>();
        leaf->fill(initialValue ? ~std::uint64_t{0} : 0);
    }
    setBit(*leaf, block & kLeafMask, value);
}

HashedHitLastStore::HashedHitLastStore(std::uint64_t table_entries,
                                       bool initial_value)
    : words((table_entries + 63) / 64,
            initial_value ? ~std::uint64_t{0} : 0),
      entries(table_entries), mask(table_entries - 1),
      initialValue(initial_value)
{
    DYNEX_ASSERT(isPowerOfTwo(table_entries),
                 "hit-last table size must be a power of two, got ",
                 table_entries);
}

void
HashedHitLastStore::reset()
{
    words.assign(words.size(),
                 initialValue ? ~std::uint64_t{0} : 0);
}

} // namespace dynex
