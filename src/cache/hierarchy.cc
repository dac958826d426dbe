#include "cache/hierarchy.h"

#include <sstream>

#include "util/logging.h"

namespace dynex
{

const char *
hitLastPolicyName(HitLastPolicy policy)
{
    switch (policy) {
      case HitLastPolicy::Ideal:
        return "ideal";
      case HitLastPolicy::Hashed:
        return "hashed";
      case HitLastPolicy::AssumeHit:
        return "assume-hit";
      case HitLastPolicy::AssumeMiss:
        return "assume-miss";
    }
    return "unknown";
}

TwoLevelCache::TwoLevelCache(const HierarchyConfig &config) : cfg(config)
{
    cfg.l1.validate();
    cfg.l2.validate();
    DYNEX_ASSERT(cfg.l1.ways == 1 && cfg.l2.ways == 1,
                 "both levels are direct-mapped in this study");
    DYNEX_ASSERT(cfg.l1.lineBytes == cfg.l2.lineBytes,
                 "levels must share a line size (paper configuration)");
    DYNEX_ASSERT(cfg.stickyMax >= 1, "stickyMax must be at least 1");

    l1Lines.resize(cfg.l1.numLines());
    l2Lines = ZeroPageArray<L2Line>(cfg.l2.numLines());

    switch (cfg.policy) {
      case HitLastPolicy::Ideal:
        sideStore = std::make_unique<IdealHitLastStore>(false);
        break;
      case HitLastPolicy::Hashed:
        sideStore = std::make_unique<HashedHitLastStore>(
            cfg.l1.numLines() * cfg.hashedEntriesPerLine, false);
        break;
      case HitLastPolicy::AssumeHit:
      case HitLastPolicy::AssumeMiss:
        break; // bits live in the L2 lines
    }
    if (cfg.l2DynamicExclusion)
        l2HitLast = std::make_unique<IdealHitLastStore>(false);
}

void
TwoLevelCache::reset()
{
    for (auto &line : l1Lines)
        line = ExclusionLine{};
    for (auto &line : l2Lines)
        line = L2Line{};
    if (sideStore)
        sideStore->reset();
    if (l2HitLast)
        l2HitLast->reset();
    statsData = HierarchyStats{};
    lastBlock = kAddrInvalid;
}

std::string
TwoLevelCache::name() const
{
    std::ostringstream oss;
    oss << "L1-" << (cfg.l1DynamicExclusion ? "dynex" : "dm");
    if (cfg.l1DynamicExclusion)
        oss << "(" << hitLastPolicyName(cfg.policy) << ")";
    oss << "+L2-dm";
    return oss.str();
}

bool
TwoLevelCache::l1Contains(Addr addr) const
{
    const auto &line = l1Lines[cfg.l1.setOf(addr)];
    return line.valid && line.tag == cfg.l1.blockOf(addr);
}

bool
TwoLevelCache::l2Contains(Addr addr) const
{
    const auto &line = l2Lines[cfg.l2.setOf(addr)];
    return line.valid && line.tag == cfg.l2.blockOf(addr);
}

bool
TwoLevelCache::lookupHitLast(Addr block, bool l2_hit) const
{
    switch (cfg.policy) {
      case HitLastPolicy::Ideal:
      case HitLastPolicy::Hashed:
        return sideStore->lookup(block);
      case HitLastPolicy::AssumeHit:
        return l2_hit ? l2Lines[block & (cfg.l2.numSets() - 1)].hitLast
                      : true;
      case HitLastPolicy::AssumeMiss:
        return l2_hit ? l2Lines[block & (cfg.l2.numSets() - 1)].hitLast
                      : false;
    }
    return false;
}

void
TwoLevelCache::updateHitLast(Addr block, bool value)
{
    if (sideStore)
        sideStore->update(block, value);
    // For the in-L2 policies the resident copy in the L1 line is
    // authoritative and is transferred on eviction; nothing to do here.
}

void
TwoLevelCache::installL2(Addr block, bool hit_last, bool forced)
{
    auto &line = l2Lines[block & (cfg.l2.numSets() - 1)];

    if (!forced && cfg.l2DynamicExclusion && line.valid &&
        line.tag != block) {
        // The L2's own exclusion FSM: a sticky L2 resident survives a
        // memory fill unless the incoming block hit last time it was
        // in the L2.
        const bool h2 = l2HitLast->lookup(block);
        if (line.sticky > 0 && !h2) {
            --line.sticky;
            return; // bypassed: the line lives only above/beside L2
        }
        l2HitLast->update(block, line.sticky > 0 ? false : true);
    }

    if (line.valid && line.tag != block)
        ++statsData.l2.evictions;
    line.tag = block;
    line.valid = true;
    line.hitLast = hit_last;
    line.sticky = cfg.stickyMax;
    ++statsData.l2.fills;
}

void
TwoLevelCache::access(const MemRef &ref, Tick)
{
    const Addr block = cfg.l1.blockOf(ref.addr);
    ++statsData.l1.accesses;

    if (cfg.useLastLine) {
        if (block == lastBlock) {
            ++statsData.l1.hits;
            return;
        }
        lastBlock = block;
    }

    auto &l1 = l1Lines[block & (cfg.l1.numSets() - 1)];
    if (l1.valid && l1.tag == block) {
        ++statsData.l1.hits;
        l1.sticky = cfg.stickyMax;
        l1.hitLastCopy = true;
        updateHitLast(block, true);
        return;
    }

    // L1 miss: probe L2.
    ++statsData.l1.misses;
    ++statsData.l2.accesses;
    auto &l2 = l2Lines[block & (cfg.l2.numSets() - 1)];
    const bool l2_hit = l2.valid && l2.tag == block;
    if (l2_hit) {
        ++statsData.l2.hits;
        if (cfg.l2DynamicExclusion) {
            l2.sticky = cfg.stickyMax;
            l2HitLast->update(block, true);
        }
    } else {
        ++statsData.l2.misses;
    }

    if (!cfg.l1DynamicExclusion) {
        // Conventional baseline: allocate-on-miss at both levels
        // (inclusive).
        if (l1.valid)
            ++statsData.l1.evictions;
        else
            ++statsData.l1.coldMisses;
        l1.tag = block;
        l1.valid = true;
        ++statsData.l1.fills;
        if (!l2_hit)
            installL2(block, true, /*forced=*/false);
        return;
    }

    const bool h = lookupHitLast(block, l2_hit);
    const FsmStep step = exclusionStep(l1, block, h, cfg.stickyMax);
    if (step.newHitLast)
        updateHitLast(block, *step.newHitLast);

    if (step.allocated) {
        ++statsData.l1.fills;
        if (step.event == FsmEvent::ColdFill)
            ++statsData.l1.coldMisses;
        if (step.evicted) {
            ++statsData.l1.evictions;
            // The victim and its hit-last copy move down a level.
            installL2(step.victimTag, step.victimHitLast);
        }
        if (!l2_hit && cfg.inclusiveL2()) {
            installL2(block, step.newHitLast.value_or(true),
                      /*forced=*/false);
        } else if (l2_hit && !cfg.inclusiveL2()) {
            // Exclusive-style promotion frees the L2 frame for other
            // lines ("instructions do not need to be stored on both
            // levels").
            auto &promoted = l2Lines[block & (cfg.l2.numSets() - 1)];
            if (promoted.valid && promoted.tag == block)
                promoted.valid = false;
        }
    } else {
        // Bypass: the block stays below L1 (and in the last-line
        // buffer); make sure L2 holds it so the next reference does
        // not go to memory.
        ++statsData.l1.bypasses;
        if (!l2_hit)
            installL2(block, false, /*forced=*/false);
    }
}

} // namespace dynex
