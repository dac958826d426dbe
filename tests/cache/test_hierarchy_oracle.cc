/** @file Differential oracle for TwoLevelCache: a transcription of the
 * original per-reference model, with its runtime policy switches and
 * virtual hit-last stores, replayed beside access() and runTrace on
 * every grid leg. Runs under the asan-ubsan preset (label
 * "sanitize"). */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "hierarchy_sweep.h"
#include "sim/runner.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

using bench::hierarchyConfig;
using bench::HierarchyLeg;
using bench::kHierarchyLegs;

/** An L1 line as first written: a validity flag beside the tag, and
 * the resident block's hit-last copy. */
struct ReferenceL1Line
{
    Addr tag = 0;
    bool valid = false;
    std::uint8_t sticky = 0;
    bool hitLastCopy = false;
};

/** Everything the reference applies after one Figure 1 step. */
struct ReferenceFsmStep
{
    FsmEvent event = FsmEvent::ColdFill;
    bool allocated = false;
    std::optional<bool> newHitLast;
    bool evicted = false;
    Addr victimTag = 0;
    bool victimHitLast = false;
};

/**
 * The Figure 1 step as first written, one branch per arc, kept here
 * so the oracle shares no transition code with the production
 * exclusionStep.
 */
ReferenceFsmStep
referenceFsmStep(ReferenceL1Line &line, Addr tag, bool hit_last_x,
                 std::uint8_t sticky_max)
{
    ReferenceFsmStep step;
    if (!line.valid) {
        step.event = FsmEvent::ColdFill;
        step.allocated = true;
        step.newHitLast = true;
        line.tag = tag;
        line.valid = true;
        line.sticky = sticky_max;
        line.hitLastCopy = true;
        return step;
    }
    if (line.tag == tag) {
        step.event = FsmEvent::Hit;
        step.newHitLast = true;
        line.sticky = sticky_max;
        line.hitLastCopy = true;
        return step;
    }
    if (line.sticky == 0) {
        step.event = FsmEvent::ReplaceUnsticky;
        step.allocated = true;
        step.newHitLast = true;
        step.evicted = true;
        step.victimTag = line.tag;
        step.victimHitLast = line.hitLastCopy;
        line.tag = tag;
        line.sticky = sticky_max;
        line.hitLastCopy = true;
        return step;
    }
    if (hit_last_x) {
        step.event = FsmEvent::ReplaceHitLast;
        step.allocated = true;
        step.newHitLast = false;
        step.evicted = true;
        step.victimTag = line.tag;
        step.victimHitLast = line.hitLastCopy;
        line.tag = tag;
        line.sticky = sticky_max;
        line.hitLastCopy = false;
        return step;
    }
    step.event = FsmEvent::Bypass;
    line.sticky = static_cast<std::uint8_t>(line.sticky - 1);
    return step;
}

/**
 * The hierarchy as first written: geometry divided out on every
 * reference, the policy switched at run time, every h bit behind the
 * virtual HitLastStore, and a side store kept (but never read) by the
 * conventional L1. Slow and obviously faithful to the paper's text.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyConfig &config)
        : cfg(config), l1Lines(config.l1.numLines()),
          l2Lines(config.l2.numLines())
    {
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
            break;
        }
        if (cfg.l2DynamicExclusion)
            l2HitLast = std::make_unique<IdealHitLastStore>(false);
    }

    const HierarchyStats &stats() const { return statsData; }

    bool
    l1Contains(Addr addr) const
    {
        const auto &line = l1Lines[cfg.l1.setOf(addr)];
        return line.valid && line.tag == cfg.l1.blockOf(addr);
    }

    bool
    l2Contains(Addr addr) const
    {
        const auto &line = l2Lines[cfg.l2.setOf(addr)];
        return line.valid && line.tag == cfg.l2.blockOf(addr);
    }

    void
    access(const MemRef &ref)
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
            if (l1.valid)
                ++statsData.l1.evictions;
            else
                ++statsData.l1.coldMisses;
            l1.tag = block;
            l1.valid = true;
            ++statsData.l1.fills;
            if (!l2_hit)
                installL2(block, true, false);
            return;
        }

        const bool inclusive_l2 = cfg.policy == HitLastPolicy::AssumeHit;
        const bool h = lookupHitLast(block, l2_hit);
        const ReferenceFsmStep step =
            referenceFsmStep(l1, block, h, cfg.stickyMax);
        if (step.newHitLast)
            updateHitLast(block, *step.newHitLast);

        if (step.allocated) {
            ++statsData.l1.fills;
            if (step.event == FsmEvent::ColdFill)
                ++statsData.l1.coldMisses;
            if (step.evicted) {
                ++statsData.l1.evictions;
                installL2(step.victimTag, step.victimHitLast, true);
            }
            if (!l2_hit && inclusive_l2) {
                installL2(block, step.newHitLast.value_or(true), false);
            } else if (l2_hit && !inclusive_l2) {
                auto &promoted = l2Lines[block & (cfg.l2.numSets() - 1)];
                if (promoted.valid && promoted.tag == block)
                    promoted.valid = false;
            }
        } else {
            ++statsData.l1.bypasses;
            if (!l2_hit)
                installL2(block, false, false);
        }
    }

  private:
    struct L2Line
    {
        Addr tag = 0;
        bool valid = false;
        bool hitLast = false;
        std::uint8_t sticky = 0;
    };

    bool
    lookupHitLast(Addr block, bool l2_hit) const
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
    updateHitLast(Addr block, bool value)
    {
        if (sideStore)
            sideStore->update(block, value);
    }

    void
    installL2(Addr block, bool hit_last, bool forced)
    {
        auto &line = l2Lines[block & (cfg.l2.numSets() - 1)];
        if (!forced && cfg.l2DynamicExclusion && line.valid &&
            line.tag != block) {
            const bool h2 = l2HitLast->lookup(block);
            if (line.sticky > 0 && !h2) {
                --line.sticky;
                return;
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

    HierarchyConfig cfg;
    std::vector<ReferenceL1Line> l1Lines;
    std::vector<L2Line> l2Lines;
    std::unique_ptr<HitLastStore> sideStore;
    std::unique_ptr<HitLastStore> l2HitLast;
    HierarchyStats statsData;
    Addr lastBlock = kAddrInvalid;
};

/** A small L1 so short traces conflict at both levels. */
constexpr std::uint64_t kSmallL1Lines = 16;

HierarchyConfig
smallConfig(const HierarchyLeg &leg, std::uint64_t ratio,
            std::uint32_t line_bytes)
{
    HierarchyConfig config;
    config.l1 = CacheGeometry::directMapped(kSmallL1Lines * line_bytes,
                                            line_bytes);
    config.l2 = CacheGeometry::directMapped(
        config.l1.sizeBytes * ratio, line_bytes);
    config.l1DynamicExclusion = leg.dynexL1;
    config.policy = leg.policy;
    config.hashedEntriesPerLine = static_cast<std::uint32_t>(ratio);
    return config;
}

/** Uniform words over four times the L2, plus a hot loop. */
Trace
randomTrace(const HierarchyConfig &config, std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace("random");
    const std::uint64_t words = config.l2.sizeBytes;
    for (int i = 0; i < 3000; ++i) {
        if (rng.nextBool(0.5))
            trace.append(ifetch(0x4000 + 4 * rng.nextBelow(48)));
        else
            trace.append(ifetch(0x4000 + 4 * rng.nextBelow(words)));
    }
    return trace;
}

/**
 * Ping-pong among blocks that share an L1 set: some also share the L2
 * set (the victim install lands on the promoted frame at ratio 1),
 * some do not. Runs of (ab)^n, (aab)^n and (abc)^n train and defeat
 * the sticky bits at both levels; repeated words within a line
 * exercise the last-line buffer.
 */
Trace
pingPongTrace(const HierarchyConfig &config, std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace("ping-pong");
    const Addr l1_stride = config.l1.sizeBytes;
    const Addr l2_stride = config.l2.sizeBytes;
    const Addr base = 0x1'0000 + config.l1.lineBytes * rng.nextBelow(4);
    const Addr blocks[] = {
        base,
        base + l1_stride,
        base + l2_stride,
        base + 2 * l2_stride,
        base + l1_stride + l2_stride,
        base + 3 * l1_stride,
    };
    const std::string patterns[] = {"ab", "aab", "abc", "abba", "acbd"};
    while (trace.size() < 3000) {
        const std::string &pattern = patterns[rng.nextBelow(5)];
        Addr pick[4];
        for (Addr &addr : pick)
            addr = blocks[rng.nextBelow(std::size(blocks))];
        const std::uint64_t reps = 1 + rng.nextBelow(6);
        for (std::uint64_t r = 0; r < reps; ++r) {
            for (const char letter : pattern) {
                const Addr addr = pick[letter - 'a'];
                const std::uint64_t words = 1 + rng.nextBelow(2);
                for (std::uint64_t w = 0; w < words; ++w)
                    trace.append(ifetch(addr + 4 * w));
            }
        }
    }
    return trace;
}

std::string
describe(const HierarchyConfig &config)
{
    return TwoLevelCache(config).name() + " l1=" +
           config.l1.toString() + " l2=" + config.l2.toString() +
           " sticky=" + std::to_string(config.stickyMax) +
           " lastLine=" + std::to_string(config.useLastLine) +
           " l2Dynex=" + std::to_string(config.l2DynamicExclusion);
}

/** Every configuration the oracle covers, on the small geometry. */
std::vector<HierarchyConfig>
oracleConfigs()
{
    std::vector<HierarchyConfig> configs;
    for (const HierarchyLeg &leg : kHierarchyLegs)
        for (const std::uint64_t ratio : {1u, 2u, 4u, 64u})
            for (const std::uint8_t sticky : {1, 2})
                for (const bool last_line : {false, true})
                    for (const bool l2_dynex : {false, true}) {
                        HierarchyConfig config =
                            smallConfig(leg, ratio, last_line ? 16 : 4);
                        config.stickyMax = sticky;
                        config.useLastLine = last_line;
                        config.l2DynamicExclusion = l2_dynex;
                        configs.push_back(config);
                    }
    return configs;
}

TEST(HierarchyOracle, AccessMatchesTheReferenceAfterEveryReference)
{
    std::uint64_t seed = 1;
    for (const HierarchyConfig &config : oracleConfigs()) {
        SCOPED_TRACE(describe(config));
        for (const Trace &trace : {randomTrace(config, seed),
                                   pingPongTrace(config, seed + 1)}) {
            ReferenceHierarchy reference(config);
            TwoLevelCache hierarchy(config);
            for (std::size_t i = 0; i < trace.size(); ++i) {
                reference.access(trace[i]);
                hierarchy.access(trace[i], i);
                ASSERT_EQ(hierarchy.stats(), reference.stats())
                    << trace.name() << " reference " << i;
            }
            for (std::size_t i = 0; i < trace.size(); ++i) {
                ASSERT_EQ(hierarchy.l1Contains(trace[i].addr),
                          reference.l1Contains(trace[i].addr));
                ASSERT_EQ(hierarchy.l2Contains(trace[i].addr),
                          reference.l2Contains(trace[i].addr));
            }

            TwoLevelCache replayed(config);
            EXPECT_EQ(runTrace(replayed, trace), reference.stats())
                << trace.name();
        }
        seed += 2;
    }
}

TEST(HierarchyOracle, RunTraceMatchesTheReferenceOnSuiteStreams)
{
    for (const char *name : {"li", "gcc", "tomcatv"}) {
        const auto trace = Workloads::instructions(name, 100'000);
        for (const std::uint64_t ratio : {1u, 2u, 4u, 64u}) {
            for (const HierarchyLeg &leg : kHierarchyLegs) {
                for (const bool l2_dynex : {false, true}) {
                    HierarchyConfig config = hierarchyConfig(ratio, leg);
                    config.l2DynamicExclusion = l2_dynex;
                    SCOPED_TRACE(std::string(name) + " " +
                                 describe(config));
                    ReferenceHierarchy reference(config);
                    for (const MemRef &ref : *trace)
                        reference.access(ref);

                    TwoLevelCache hierarchy(config);
                    EXPECT_EQ(runTrace(hierarchy, *trace),
                              reference.stats());
                    EXPECT_GT(reference.stats().l2.accesses, 0u);
                }
            }
        }
    }
}

TEST(HierarchyOracle, ReplayContinuesWhereAccessLeftOff)
{
    // access() and replay() share one step and one state: any split of
    // a trace between them ends where one call of either would.
    const HierarchyConfig config =
        smallConfig(kHierarchyLegs[4], 4, 16);
    HierarchyConfig last_line = config;
    last_line.useLastLine = true;
    for (const HierarchyConfig &c : {config, last_line}) {
        const Trace trace = pingPongTrace(c, 77);
        ReferenceHierarchy reference(c);
        for (const MemRef &ref : trace)
            reference.access(ref);

        TwoLevelCache split(c);
        const std::size_t half = trace.size() / 2;
        for (std::size_t i = 0; i < half; ++i)
            split.access(trace[i], i);
        split.replay(trace.records().data() + half, trace.size() - half);
        EXPECT_EQ(split.stats(), reference.stats());
    }
}

} // namespace
} // namespace dynex
