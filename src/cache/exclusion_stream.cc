#include "cache/exclusion_stream.h"

#include "util/logging.h"

namespace dynex
{

ExclusionStreamCache::ExclusionStreamCache(
    const CacheGeometry &geometry, std::uint32_t buffer_depth,
    std::uint8_t sticky_max, std::unique_ptr<HitLastStore> store)
    : CacheModel(geometry),
      hitLast(store ? std::move(store)
                    : std::make_unique<IdealHitLastStore>(false)),
      depth(buffer_depth), stickyMax(sticky_max)
{
    DYNEX_ASSERT(geometry.ways == 1,
                 "dynamic exclusion applies to direct-mapped caches");
    DYNEX_ASSERT(depth >= 1, "stream buffer depth must be at least 1");
    DYNEX_ASSERT(sticky_max >= 1, "stickyMax must be at least 1");
    lines.resize(geo.numLines());
}

void
ExclusionStreamCache::reset()
{
    lines.assign(lines.size(), ExclusionLine{});
    hitLast->reset();
    windowBase = kAddrInvalid;
    lastBlock = kAddrInvalid;
    streamHitCount = 0;
    resetStats();
}

std::string
ExclusionStreamCache::name() const
{
    return "dynex-stream" + std::to_string(depth);
}

bool
ExclusionStreamCache::contains(Addr addr) const
{
    const Addr block = blockOf(addr);
    return lines[setOfBlock(block)].tag == block;
}

bool
ExclusionStreamCache::inWindow(Addr block) const
{
    return windowBase != kAddrInvalid && block >= windowBase &&
           block < windowBase + depth;
}

AccessOutcome
ExclusionStreamCache::doAccess(const MemRef &ref, Tick)
{
    const Addr block = blockOf(ref.addr);

    AccessOutcome outcome;
    if (block == lastBlock) {
        // Within-line words: served wherever the line lives.
        outcome.hit = true;
        return outcome;
    }
    lastBlock = block;

    const std::uint64_t set = setOfBlock(block);
    auto &line = lines[set];
    const bool in_l1 = line.tag == block;
    const bool buffered = inWindow(block);

    if (!in_l1 && buffered) {
        // Prefetched or exclusion-resident: the buffer supplied the
        // line; slide the window so prefetching continues ahead.
        ++streamHitCount;
        windowBase = block + 1;
    } else if (!in_l1) {
        // Fetch from memory into the buffer (scheme 3: "all missing
        // lines are stored in the stream buffer").
        windowBase = block;
    }

    const Addr resident = line.tag;
    const FsmEvent event = exclusionStep(
        line.tag, line.sticky, block, hitLast->lookup(block), stickyMax);
    if (fsmWritesHitLast(event))
        hitLast->update(block, fsmNewHitLast(event));

    outcome.hit = event == FsmEvent::Hit || buffered;
    if (!outcome.hit) {
        outcome.bypassed = event == FsmEvent::Bypass;
        outcome.evicted = fsmEvicts(event);
        outcome.filled = outcome.evicted || event == FsmEvent::ColdFill;
        if (outcome.evicted)
            outcome.victimBlock = resident;
        if (event == FsmEvent::ColdFill)
            noteColdMiss();
    }
    return outcome;
}

} // namespace dynex
