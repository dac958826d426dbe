/**
 * @file
 * Cross-checks of the FSM event counters, of the model and of the
 * replay kernel, against an independent reference implementation of
 * the paper's Figure 1 transition table on the Section 3 letter
 * patterns, plus the accounting invariants that tie the event counts
 * to the CacheStats.
 */

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>

#include "cache/dynamic_exclusion.h"
#include "sim/kernel.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace dynex
{
namespace
{

using EventTally = std::array<Count, 5>;

Count
of(const EventTally &tally, FsmEvent event)
{
    return tally[static_cast<std::size_t>(event)];
}

/** What the reference saw: one tally per Figure 1 arc, plus the
 * references the last-line buffer served without the FSM. */
struct ReferenceRun
{
    EventTally tally{};
    Count lastLineHits = 0;
};

/**
 * Independent Figure 1 reference: a one-set direct-mapped cache of
 * 32-byte lines, which the letter patterns all conflict in, stepped
 * straight off the transition table as written in the paper —
 *
 *   cold                   -> fill;    s := max; h[x] := 1
 *   hit                    ->          s := max; h[x] := 1
 *   miss, s == 0           -> replace; s := max; h[x] := 1
 *   miss, s > 0, h[x] == 1 -> replace; s := max; h[x] := 0
 *   miss, s > 0, h[x] == 0 -> bypass;  s := s - 1
 *
 * With @p last_line, a reference to the block just referenced is
 * served by the last-line buffer and never reaches the table (Section
 * 6). A never-seen block's h starts at @p initial_hit_last.
 * Deliberately shares no code with exclusionStep.
 */
ReferenceRun
figure1Reference(const Trace &trace, std::uint8_t sticky_max,
                 bool last_line = false, bool initial_hit_last = false)
{
    ReferenceRun run;
    bool valid = false;
    Addr resident = 0;
    std::uint8_t sticky = 0;
    std::unordered_map<Addr, bool> hit_last;
    bool have_previous = false;
    Addr previous = 0;

    const auto count = [&](FsmEvent event) {
        ++run.tally[static_cast<std::size_t>(event)];
    };
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Addr block = trace[i].addr / 32;
        if (last_line && have_previous && block == previous) {
            ++run.lastLineHits;
            continue;
        }
        have_previous = true;
        previous = block;
        const bool h = hit_last.count(block) ? hit_last[block]
                                             : initial_hit_last;
        if (!valid) {
            count(FsmEvent::ColdFill);
            valid = true;
            resident = block;
            sticky = sticky_max;
            hit_last[block] = true;
        } else if (resident == block) {
            count(FsmEvent::Hit);
            sticky = sticky_max;
            hit_last[block] = true;
        } else if (sticky == 0) {
            count(FsmEvent::ReplaceUnsticky);
            resident = block;
            sticky = sticky_max;
            hit_last[block] = true;
        } else if (h) {
            count(FsmEvent::ReplaceHitLast);
            resident = block;
            sticky = sticky_max;
            hit_last[block] = false;
        } else {
            count(FsmEvent::Bypass);
            --sticky;
        }
    }
    return run;
}

/** Run @p trace through the real model (single 32B-line set, FSM
 * observing every access) and return its event counts. */
FsmEventCounts
modelCounts(const Trace &trace, std::uint8_t sticky_max,
            CacheStats *stats_out = nullptr)
{
    DynamicExclusionConfig config;
    config.stickyMax = sticky_max;
    DynamicExclusionCache cache(CacheGeometry::directMapped(32, 32),
                                config);
    const CacheStats stats = runTrace(cache, trace);
    if (stats_out)
        *stats_out = stats;
    return cache.eventCounts();
}

/** The paper's Section 3 patterns, all letters conflicting. */
const char *const kPatterns[] = {
    // (a^10 b)^10: 'a' should stay resident, 'b' should learn to
    // bypass — the motivating case for exclusion.
    "aaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaab"
    "aaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaab",
    // (a^10 b^10)^10: both runs long enough that each deserves the
    // line while it is hot; hit-last flips residency at run edges.
    "aaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbb"
    "aaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbb"
    "aaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbb"
    "aaaaaaaaaabbbbbbbbbb",
    // (ab)^10: pure alternation, the degenerate thrash pattern.
    "abababababababababab",
    // (abc)^7: three-way rotation defeats a single sticky bit.
    "abcabcabcabcabcabcabc",
    // Single run: cold fill plus pure hits.
    "aaaaaaaaaaaaaaaaaaaa",
};

TEST(FsmEventCounts, MatchTheFigure1ReferenceOnPaperPatterns)
{
    for (const char *pattern : kPatterns) {
        for (const std::uint8_t sticky_max : {1, 2, 3}) {
            const Trace trace = Trace::fromPattern(pattern);
            const EventTally expected =
                figure1Reference(trace, sticky_max).tally;
            const FsmEventCounts actual =
                modelCounts(trace, sticky_max);
            for (const FsmEvent event :
                 {FsmEvent::ColdFill, FsmEvent::Hit,
                  FsmEvent::ReplaceUnsticky, FsmEvent::ReplaceHitLast,
                  FsmEvent::Bypass}) {
                EXPECT_EQ(actual.of(event), of(expected, event))
                    << fsmEventName(event) << " on \"" << pattern
                    << "\" with stickyMax "
                    << static_cast<int>(sticky_max);
            }
        }
    }
}

TEST(FsmEventCounts, KnownTalliesForTheMotivatingPattern)
{
    // (a^3 b)^3 with one sticky bit, stepped by hand:
    //   a cold-fills; a,a hit.
    //   b: miss, s=1, h[b]=0 -> bypass (s->0).
    //   a: hit (s->1). a,a hit.
    //   b: miss, s=1, h[b]=0 -> bypass. (b never gains the line:
    //   'a' re-arms sticky before b returns, and h[b] stays 0.)
    //   ... repeating: every b bypasses.
    const Trace trace = Trace::fromPattern("aaabaaabaaab");
    const FsmEventCounts counts = modelCounts(trace, 1);
    EXPECT_EQ(counts.of(FsmEvent::ColdFill), 1u);
    EXPECT_EQ(counts.of(FsmEvent::Hit), 8u);
    EXPECT_EQ(counts.of(FsmEvent::ReplaceUnsticky), 0u);
    EXPECT_EQ(counts.of(FsmEvent::ReplaceHitLast), 0u);
    EXPECT_EQ(counts.of(FsmEvent::Bypass), 3u);
}

TEST(FsmEventCounts, EventsReconcileWithCacheStats)
{
    for (const char *pattern : kPatterns) {
        const Trace trace = Trace::fromPattern(pattern);
        CacheStats stats;
        const FsmEventCounts counts = modelCounts(trace, 1, &stats);
        const Count replaces =
            counts.of(FsmEvent::ReplaceUnsticky) +
            counts.of(FsmEvent::ReplaceHitLast);
        EXPECT_EQ(stats.hits, counts.of(FsmEvent::Hit)) << pattern;
        EXPECT_EQ(stats.misses, counts.of(FsmEvent::ColdFill) +
                                    replaces +
                                    counts.of(FsmEvent::Bypass))
            << pattern;
        EXPECT_EQ(stats.bypasses, counts.of(FsmEvent::Bypass))
            << pattern;
        EXPECT_EQ(stats.fills,
                  counts.of(FsmEvent::ColdFill) + replaces)
            << pattern;
        EXPECT_EQ(stats.evictions, replaces) << pattern;
        EXPECT_EQ(stats.coldMisses, counts.of(FsmEvent::ColdFill))
            << pattern;
    }
}

TEST(FsmEventCounts, TriadResultCarriesTheCounts)
{
    const Trace trace = Trace::fromPattern("abababababababababab");
    const NextUseIndex index(trace, 32, NextUseMode::RunStart);
    const TriadResult triad = runTriad(trace, index, 32, 32);
    EXPECT_EQ(triad.deEvents.of(FsmEvent::Hit), triad.de.hits);
    EXPECT_EQ(triad.deEvents.of(FsmEvent::Bypass),
              triad.de.bypasses);
    Count total = 0;
    for (const FsmEvent event :
         {FsmEvent::ColdFill, FsmEvent::Hit, FsmEvent::ReplaceUnsticky,
          FsmEvent::ReplaceHitLast, FsmEvent::Bypass})
        total += triad.deEvents.of(event);
    EXPECT_EQ(total, trace.size());
}

TEST(FsmEventCounts, KernelMatchesTheFigure1Reference)
{
    // The replay kernel's arc tallies and DE statistics against the
    // independent table, on both hit-last lanes: the flat bitmap
    // (blocks below 2^26, cold-false bits) and the ideal store (blocks
    // at or above 2^26, or cold-true bits).
    const std::uint64_t size = 32;
    const std::uint32_t line = 32;
    for (const char *pattern : kPatterns) {
        for (const Addr base : {Addr{0x10000}, Addr{1} << 36}) {
            const Trace trace = Trace::fromPattern(pattern, base);
            const NextUseIndex index(trace, line, NextUseMode::RunStart);
            for (const std::uint8_t sticky_max : {1, 2, 3, 4}) {
                for (const bool last_line : {false, true}) {
                    for (const bool initial : {false, true}) {
                        DynamicExclusionConfig config;
                        config.stickyMax = sticky_max;
                        config.useLastLine = last_line;
                        config.initialHitLast = initial;
                        const TriadResult kernel =
                            replayTriads(trace, index, {size}, line,
                                         config)
                                .triads[0];
                        const ReferenceRun ref = figure1Reference(
                            trace, sticky_max, last_line, initial);
                        const std::string label =
                            std::string("\"") + pattern + "\" base " +
                            std::to_string(base) + " stickyMax " +
                            std::to_string(sticky_max) + " lastLine " +
                            std::to_string(last_line) + " initial " +
                            std::to_string(initial);
                        for (const FsmEvent event :
                             {FsmEvent::ColdFill, FsmEvent::Hit,
                              FsmEvent::ReplaceUnsticky,
                              FsmEvent::ReplaceHitLast,
                              FsmEvent::Bypass})
                            EXPECT_EQ(kernel.deEvents.of(event),
                                      of(ref.tally, event))
                                << fsmEventName(event) << " " << label;
                        const Count replaces =
                            of(ref.tally, FsmEvent::ReplaceUnsticky) +
                            of(ref.tally, FsmEvent::ReplaceHitLast);
                        const Count hits = ref.lastLineHits +
                                           of(ref.tally, FsmEvent::Hit);
                        const CacheStats &de = kernel.de;
                        EXPECT_EQ(de.accesses, trace.size()) << label;
                        EXPECT_EQ(de.hits, hits) << label;
                        EXPECT_EQ(de.misses, trace.size() - hits)
                            << label;
                        EXPECT_EQ(de.coldMisses,
                                  of(ref.tally, FsmEvent::ColdFill))
                            << label;
                        EXPECT_EQ(de.fills,
                                  of(ref.tally, FsmEvent::ColdFill) +
                                      replaces)
                            << label;
                        EXPECT_EQ(de.bypasses,
                                  of(ref.tally, FsmEvent::Bypass))
                            << label;
                        EXPECT_EQ(de.evictions, replaces) << label;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace dynex
