#include "cache/victim.h"

#include <algorithm>

#include "util/logging.h"

namespace dynex
{

VictimCache::VictimCache(const CacheGeometry &geometry,
                         std::uint32_t victim_entries)
    : CacheModel(geometry), capacity(victim_entries)
{
    DYNEX_ASSERT(geometry.ways == 1,
                 "victim caches back a direct-mapped cache");
    DYNEX_ASSERT(victim_entries >= 1, "need at least one victim entry");
    tags.assign(geo.numLines(), 0);
    valid.assign(geo.numLines(), false);
    buffer.reserve(capacity);
}

void
VictimCache::reset()
{
    std::fill(valid.begin(), valid.end(), false);
    buffer.clear();
    victimHitCount = 0;
    resetStats();
}

std::string
VictimCache::name() const
{
    return "victim-" + std::to_string(capacity);
}

void
VictimCache::insertVictim(Addr block, Tick tick)
{
    if (buffer.size() < capacity) {
        buffer.push_back({block, tick});
        return;
    }
    auto lru = std::min_element(buffer.begin(), buffer.end(),
                                [](const VictimEntry &a,
                                   const VictimEntry &b) {
                                    return a.lastUse < b.lastUse;
                                });
    *lru = {block, tick};
}

AccessOutcome
VictimCache::doAccess(const MemRef &ref, Tick tick)
{
    const Addr block = blockOf(ref.addr);
    const std::uint64_t set = setOfBlock(block);

    AccessOutcome outcome;
    if (valid[set] && tags[set] == block) {
        outcome.hit = true;
        return outcome;
    }

    // Probe the victim buffer.
    for (auto &entry : buffer) {
        if (entry.block != block)
            continue;
        // Swap: the requested line moves to the main cache; the main
        // line (if any) takes its slot in the buffer.
        ++victimHitCount;
        outcome.hit = true;
        if (valid[set]) {
            entry.block = tags[set];
            entry.lastUse = tick;
        } else {
            entry = buffer.back();
            buffer.pop_back();
        }
        tags[set] = block;
        valid[set] = true;
        return outcome;
    }

    // Full miss: fill the main cache, push the displaced line into the
    // victim buffer.
    if (valid[set]) {
        outcome.evicted = true;
        outcome.victimBlock = tags[set];
        insertVictim(tags[set], tick);
    } else {
        noteColdMiss();
    }
    tags[set] = block;
    valid[set] = true;
    outcome.filled = true;
    return outcome;
}

} // namespace dynex
