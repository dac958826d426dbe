#include "cache/set_assoc.h"

#include "util/logging.h"

namespace dynex
{

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             std::unique_ptr<ReplacementPolicy> policy)
    : CacheModel(geometry),
      repl(policy ? std::move(policy) : std::make_unique<LruPolicy>()),
      waysPerSet(geometry.linesPerSet())
{
    tags.assign(geo.numLines(), 0);
    valid.assign(geo.numLines(), false);
    repl->init(geo.numSets(), waysPerSet);
}

void
SetAssocCache::reset()
{
    std::fill(valid.begin(), valid.end(), false);
    repl->reset();
    resetStats();
}

std::string
SetAssocCache::name() const
{
    if (geo.ways == 0)
        return "fully-associative-" + repl->name();
    return std::to_string(geo.ways) + "-way-" + repl->name();
}

std::uint32_t
SetAssocCache::lineIndex(std::uint64_t set, std::uint32_t way) const
{
    return static_cast<std::uint32_t>(set * waysPerSet + way);
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr block = blockOf(addr);
    const std::uint64_t set = setOfBlock(block);
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        const auto idx = set * waysPerSet + w;
        if (valid[idx] && tags[idx] == block)
            return true;
    }
    return false;
}

AccessOutcome
SetAssocCache::doAccess(const MemRef &ref, Tick tick)
{
    const Addr block = blockOf(ref.addr);
    const std::uint64_t set = setOfBlock(block);

    AccessOutcome outcome;
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        const auto idx = lineIndex(set, w);
        if (valid[idx] && tags[idx] == block) {
            outcome.hit = true;
            repl->touch(set, w, tick);
            return outcome;
        }
    }

    // Miss: prefer an invalid way, otherwise ask the policy.
    std::uint32_t fill_way = waysPerSet;
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (!valid[lineIndex(set, w)]) {
            fill_way = w;
            break;
        }
    }
    if (fill_way == waysPerSet) {
        fill_way = repl->victim(set, tick);
        DYNEX_ASSERT(fill_way < waysPerSet, "policy returned way ",
                     fill_way, " of ", waysPerSet);
        outcome.evicted = true;
        outcome.victimBlock = tags[lineIndex(set, fill_way)];
    } else {
        noteColdMiss();
    }

    const auto idx = lineIndex(set, fill_way);
    tags[idx] = block;
    valid[idx] = true;
    repl->fill(set, fill_way, tick);
    outcome.filled = true;
    return outcome;
}

} // namespace dynex
