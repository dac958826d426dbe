#include "cache/hierarchy.h"

#include <sstream>

#include "cache/direct_mapped.h"
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

TwoLevelCache::TwoLevelCache(const HierarchyConfig &config)
    : cfg(config), kernel(selectKernel(config))
{
    cfg.l1.validate();
    cfg.l2.validate();
    DYNEX_ASSERT(cfg.l1.ways == 1 && cfg.l2.ways == 1,
                 "both levels are direct-mapped in this study");
    DYNEX_ASSERT(cfg.l1.lineBytes == cfg.l2.lineBytes,
                 "levels must share a line size (paper configuration)");
    DYNEX_ASSERT(cfg.stickyMax >= 1, "stickyMax must be at least 1");

    lineShift = cfg.l1.lineShift();
    l1Mask = cfg.l1.numSets() - 1;
    l2Mask = cfg.l2.numSets() - 1;
    l1Lines.resize(cfg.l1.numLines());
    l2Lines = ZeroPageArray<L2Line>(cfg.l2.numLines());

    if (cfg.l1DynamicExclusion && cfg.policy == HitLastPolicy::Ideal)
        idealStore.emplace(false);
    if (cfg.l1DynamicExclusion && cfg.policy == HitLastPolicy::Hashed)
        hashedStore.emplace(cfg.l1.numLines() * cfg.hashedEntriesPerLine,
                            false);
    if (cfg.l2DynamicExclusion)
        l2HitLast.emplace(false);
}

template <bool DynexL1, HitLastPolicy P, bool LastLine>
TwoLevelCache::Kernel
TwoLevelCache::kernelFor()
{
    return {&TwoLevelCache::step<DynexL1, P, LastLine>,
            &TwoLevelCache::replayLoop<DynexL1, P, LastLine>};
}

TwoLevelCache::Kernel
TwoLevelCache::selectKernel(const HierarchyConfig &config)
{
    const auto pick = [&]<bool LastLine>() -> Kernel {
        if (!config.l1DynamicExclusion)
            return kernelFor<false, HitLastPolicy::Ideal, LastLine>();
        switch (config.policy) {
          case HitLastPolicy::Ideal:
            return kernelFor<true, HitLastPolicy::Ideal, LastLine>();
          case HitLastPolicy::Hashed:
            return kernelFor<true, HitLastPolicy::Hashed, LastLine>();
          case HitLastPolicy::AssumeHit:
            return kernelFor<true, HitLastPolicy::AssumeHit, LastLine>();
          case HitLastPolicy::AssumeMiss:
            return kernelFor<true, HitLastPolicy::AssumeMiss, LastLine>();
        }
        DYNEX_PANIC("unknown hit-last policy");
    };
    return config.useLastLine ? pick.template operator()<true>()
                              : pick.template operator()<false>();
}

void
TwoLevelCache::reset()
{
    l1Lines.assign(l1Lines.size(), L1Line{});
    for (auto &line : l2Lines)
        line = L2Line{};
    if (idealStore)
        idealStore->reset();
    if (hashedStore)
        hashedStore->reset();
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
    const Addr block = addr >> lineShift;
    return l1Lines[block & l1Mask].tag == block;
}

bool
TwoLevelCache::l2Contains(Addr addr) const
{
    const Addr block = addr >> lineShift;
    const auto &line = l2Lines[block & l2Mask];
    return line.valid && line.tag == block;
}

void
TwoLevelCache::installL2(Addr block, bool hit_last, bool forced)
{
    auto &line = l2Lines[block & l2Mask];

    if (!forced && cfg.l2DynamicExclusion) {
        // A sticky L2 resident survives a memory fill unless the
        // incoming block hit last time it was in the L2.
        const FsmEvent event =
            l2ExclusionStep(line.valid, line.tag, line.sticky, block,
                            l2HitLast->lookup(block), cfg.stickyMax);
        if (event == FsmEvent::Bypass)
            return; // the line lives only above/beside L2
        if (fsmEvicts(event)) {
            l2HitLast->update(block, fsmNewHitLast(event));
            ++statsData.l2.evictions;
        }
    } else if (line.valid && line.tag != block) {
        ++statsData.l2.evictions;
    }
    line.tag = block;
    line.valid = true;
    line.hitLast = hit_last;
    line.sticky = cfg.stickyMax;
    ++statsData.l2.fills;
}

bool
TwoLevelCache::probeL2(Addr block)
{
    ++statsData.l1.misses;
    ++statsData.l2.accesses;
    auto &l2 = l2Lines[block & l2Mask];
    if (!l2.valid || l2.tag != block) {
        ++statsData.l2.misses;
        return false;
    }
    ++statsData.l2.hits;
    if (cfg.l2DynamicExclusion) {
        l2.sticky = cfg.stickyMax;
        l2HitLast->update(block, true);
    }
    return true;
}

template <bool DynexL1, HitLastPolicy P, bool LastLine>
void
TwoLevelCache::step(Addr block)
{
    ++statsData.l1.accesses;

    if constexpr (LastLine) {
        if (block == lastBlock) {
            ++statsData.l1.hits;
            return;
        }
        lastBlock = block;
    }

    auto &l1 = l1Lines[block & l1Mask];
    if constexpr (!DynexL1) {
        // Conventional baseline: allocate-on-miss at both levels
        // (inclusive).
        const Addr resident = directMappedStep(l1.tag, block);
        if (resident == block) {
            ++statsData.l1.hits;
            return;
        }
        const bool l2_hit = probeL2(block);
        if (resident == kAddrInvalid)
            ++statsData.l1.coldMisses;
        else
            ++statsData.l1.evictions;
        ++statsData.l1.fills;
        if (!l2_hit)
            installL2(block, true, /*forced=*/false);
    } else {
        // Whether memory fills allocate in L2 even when L1 stores the
        // line. AssumeHit is inclusive (h bits must be findable in
        // L2); the other policies are exclusive-style, letting L2 hold
        // other lines.
        constexpr bool kInclusiveL2 = P == HitLastPolicy::AssumeHit;

        // h is read only on a miss, after the L2 probe: the in-L2
        // policies find it there, defaulting by their name on an L2
        // miss.
        bool l2_hit = false;
        bool h = false;
        if (l1.tag == block) {
            ++statsData.l1.hits;
        } else {
            l2_hit = probeL2(block);
            h = P == HitLastPolicy::AssumeHit;
            if constexpr (P == HitLastPolicy::Ideal)
                h = idealStore->lookup(block);
            else if constexpr (P == HitLastPolicy::Hashed)
                h = hashedStore->lookup(block);
            else if (l2_hit)
                h = l2Lines[block & l2Mask].hitLast;
        }

        const Addr victim = l1.tag;
        const bool victim_hit_last = l1.hitLast;
        const FsmEvent event =
            exclusionStep(l1.tag, l1.sticky, block, h, cfg.stickyMax);
        if (fsmWritesHitLast(event)) {
            // For the in-L2 policies the copy in the L1 line is
            // authoritative and is transferred on eviction.
            l1.hitLast = fsmNewHitLast(event);
            if constexpr (P == HitLastPolicy::Ideal)
                idealStore->update(block, l1.hitLast);
            else if constexpr (P == HitLastPolicy::Hashed)
                hashedStore->update(block, l1.hitLast);
        }

        if (event == FsmEvent::Hit)
            return;
        if (event == FsmEvent::Bypass) {
            // The block stays below L1 (and in the last-line buffer);
            // make sure L2 holds it so the next reference does not go
            // to memory.
            ++statsData.l1.bypasses;
            if (!l2_hit)
                installL2(block, false, /*forced=*/false);
            return;
        }

        ++statsData.l1.fills;
        if (event == FsmEvent::ColdFill)
            ++statsData.l1.coldMisses;
        if (fsmEvicts(event)) {
            ++statsData.l1.evictions;
            // The victim and its hit-last copy move down a level.
            installL2(victim, victim_hit_last, /*forced=*/true);
        }
        if (!l2_hit && kInclusiveL2) {
            installL2(block, l1.hitLast, /*forced=*/false);
        } else if (l2_hit && !kInclusiveL2) {
            // Exclusive-style promotion frees the L2 frame for other
            // lines ("instructions do not need to be stored on both
            // levels"). The victim install above may already have
            // taken the frame.
            auto &l2 = l2Lines[block & l2Mask];
            if (l2.valid && l2.tag == block)
                l2.valid = false;
        }
    }
}

template <bool DynexL1, HitLastPolicy P, bool LastLine>
void
TwoLevelCache::replayLoop(const MemRef *refs, std::size_t n)
{
    const unsigned shift = lineShift;
    for (std::size_t i = 0; i < n; ++i)
        step<DynexL1, P, LastLine>(refs[i].addr >> shift);
}

} // namespace dynex
