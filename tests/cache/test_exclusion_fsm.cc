/**
 * @file
 * Unit tests of the dynamic-exclusion FSM transition function against
 * the transition table reconstructed from Figure 1 of the paper.
 */

#include <gtest/gtest.h>

#include "cache/exclusion_fsm.h"

namespace dynex
{
namespace
{

/** One step on @p line; returns the arc that fired. */
FsmEvent
step(ExclusionLine &line, Addr block, bool h, std::uint8_t sticky_max = 1)
{
    return exclusionStep(line.tag, line.sticky, block, h, sticky_max);
}

TEST(ExclusionFsm, ColdFillAllocatesAndSetsHitLast)
{
    ExclusionLine line;
    EXPECT_EQ(line.tag, kAddrInvalid) << "a new line is invalid";
    const FsmEvent event = step(line, 0x42, /*h=*/false);

    EXPECT_EQ(event, FsmEvent::ColdFill);
    EXPECT_TRUE(fsmWritesHitLast(event));
    EXPECT_TRUE(fsmNewHitLast(event));
    EXPECT_FALSE(fsmEvicts(event));

    EXPECT_EQ(line.tag, 0x42u);
    EXPECT_EQ(line.sticky, 1);
}

TEST(ExclusionFsm, HitRearmsStickyAndSetsHitLast)
{
    ExclusionLine line{0x42, 0};
    const FsmEvent event = step(line, 0x42, false);

    EXPECT_EQ(event, FsmEvent::Hit);
    EXPECT_TRUE(fsmWritesHitLast(event));
    EXPECT_TRUE(fsmNewHitLast(event));
    EXPECT_FALSE(fsmEvicts(event));
    EXPECT_EQ(line.tag, 0x42u);
    EXPECT_EQ(line.sticky, 1);
}

TEST(ExclusionFsm, UnstickyConflictReplacesAndSetsHitLast)
{
    // The A,!s -> B,s transition: the incoming block "should have hit
    // the last time it was executed", so h[x] is set despite missing.
    ExclusionLine line{0x1, 0};
    const FsmEvent event = step(line, 0x2, /*h=*/false);

    EXPECT_EQ(event, FsmEvent::ReplaceUnsticky);
    EXPECT_TRUE(fsmWritesHitLast(event));
    EXPECT_TRUE(fsmNewHitLast(event));
    EXPECT_TRUE(fsmEvicts(event));

    EXPECT_EQ(line.tag, 0x2u);
    EXPECT_EQ(line.sticky, 1);
}

TEST(ExclusionFsm, HitLastOverridesStickyAndIsConsumed)
{
    ExclusionLine line{0x1, 1};
    const FsmEvent event = step(line, 0x2, /*h=*/true);

    EXPECT_EQ(event, FsmEvent::ReplaceHitLast);
    EXPECT_TRUE(fsmWritesHitLast(event));
    EXPECT_FALSE(fsmNewHitLast(event)) << "h[x] must be reset on the "
                                          "sticky-override load";
    EXPECT_TRUE(fsmEvicts(event));
    EXPECT_EQ(line.tag, 0x2u);
    EXPECT_EQ(line.sticky, 1);
}

TEST(ExclusionFsm, StickyConflictWithoutHitLastBypasses)
{
    ExclusionLine line{0x1, 1};
    const FsmEvent event = step(line, 0x2, /*h=*/false);

    EXPECT_EQ(event, FsmEvent::Bypass);
    EXPECT_FALSE(fsmWritesHitLast(event));
    EXPECT_FALSE(fsmEvicts(event));

    EXPECT_EQ(line.tag, 0x1u) << "resident survives the conflict";
    EXPECT_EQ(line.sticky, 0) << "but loses its stickiness";
}

TEST(ExclusionFsm, SecondConflictAfterBypassReplaces)
{
    ExclusionLine line{0x1, 1};
    step(line, 0x2, false); // bypass, sticky drops to 0
    const FsmEvent event = step(line, 0x2, false);

    EXPECT_EQ(event, FsmEvent::ReplaceUnsticky);
    EXPECT_EQ(line.tag, 0x2u);
}

TEST(ExclusionFsm, ResidentReExecutionRearmsBetweenConflicts)
{
    // "it will be replaced the next time a conflicting instruction is
    // executed unless the original instruction is executed first"
    ExclusionLine line{0x1, 1};
    step(line, 0x2, false);          // conflict: bypass, s=0
    step(line, 0x1, false);          // resident re-executed
    const FsmEvent event = step(line, 0x2, false);

    EXPECT_EQ(event, FsmEvent::Bypass) << "stickiness was re-armed";
    EXPECT_EQ(line.tag, 0x1u);
}

TEST(ExclusionFsm, MultiLevelStickyCounterSurvivesMultipleConflicts)
{
    // The TN-22 extension: with sticky_max = 2, a line survives two
    // conflicts between re-executions.
    ExclusionLine line;
    step(line, 0xa, false, 2); // cold fill, sticky = 2

    EXPECT_EQ(step(line, 0xb, false, 2), FsmEvent::Bypass);
    EXPECT_EQ(line.sticky, 1);

    EXPECT_EQ(step(line, 0xc, false, 2), FsmEvent::Bypass);
    EXPECT_EQ(line.sticky, 0);

    EXPECT_EQ(step(line, 0xb, false, 2), FsmEvent::ReplaceUnsticky);
    EXPECT_EQ(line.tag, 0xbu);
    EXPECT_EQ(line.sticky, 2);
}

TEST(ExclusionFsm, EventNamesAreStable)
{
    EXPECT_STREQ(fsmEventName(FsmEvent::ColdFill), "cold-fill");
    EXPECT_STREQ(fsmEventName(FsmEvent::Hit), "hit");
    EXPECT_STREQ(fsmEventName(FsmEvent::ReplaceUnsticky),
                 "replace-unsticky");
    EXPECT_STREQ(fsmEventName(FsmEvent::ReplaceHitLast),
                 "replace-hit-last");
    EXPECT_STREQ(fsmEventName(FsmEvent::Bypass), "bypass");
}

} // namespace
} // namespace dynex
