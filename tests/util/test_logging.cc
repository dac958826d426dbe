/** @file Unit tests of the panic/fatal/warn reporting macros. */

#include <gtest/gtest.h>

#include "util/logging.h"

namespace dynex
{
namespace
{

TEST(LoggingDeathTest, PanicAbortsWithMessage)
{
    EXPECT_DEATH(DYNEX_PANIC("broken invariant ", 42),
                 "panic: broken invariant 42");
}

TEST(LoggingDeathTest, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(DYNEX_FATAL("bad config: ", "size"),
                ::testing::ExitedWithCode(1), "fatal: bad config: size");
}

TEST(LoggingDeathTest, AssertFiresOnlyWhenFalse)
{
    DYNEX_ASSERT(1 + 1 == 2, "never fires");
    EXPECT_DEATH(DYNEX_ASSERT(1 + 1 == 3, "math failed ", 99),
                 "assertion failed.*math failed 99");
}

TEST(Logging, WarnGoesToStderr)
{
    ::testing::internal::CaptureStderr();
    DYNEX_WARN("watch out ", 7);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: watch out 7"), std::string::npos);
}

TEST(Logging, ConcatHandlesMixedTypes)
{
    EXPECT_EQ(detail::concat("x=", 3, ", y=", 2.5, ", z=", 'c'),
              "x=3, y=2.5, z=c");
    EXPECT_EQ(detail::concat(), "");
}

} // namespace
} // namespace dynex
