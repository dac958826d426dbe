/** @file Unit tests of string/size helpers. */

#include <gtest/gtest.h>

#include "util/string_utils.h"

namespace dynex
{
namespace
{

TEST(FormatSize, ScalesExactPowers)
{
    EXPECT_EQ(formatSize(0), "0B");
    EXPECT_EQ(formatSize(512), "512B");
    EXPECT_EQ(formatSize(1024), "1KB");
    EXPECT_EQ(formatSize(32 * 1024), "32KB");
    EXPECT_EQ(formatSize(3 * 1024 * 1024), "3MB");
}

TEST(FormatSize, NonMultiplesStayInBytes)
{
    EXPECT_EQ(formatSize(1000), "1000B");
    EXPECT_EQ(formatSize(1536), "1536B");
}

TEST(ParseSize, AcceptsSuffixes)
{
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("512B"), 512u);
    EXPECT_EQ(parseSize("32KB"), 32u * 1024);
    EXPECT_EQ(parseSize("32kb"), 32u * 1024);
    EXPECT_EQ(parseSize("2M"), 2u * 1024 * 1024);
    EXPECT_EQ(parseSize(" 1GB "), 1ull << 30);
}

TEST(ParseSize, RejectsGarbage)
{
    EXPECT_FALSE(parseSize("").has_value());
    EXPECT_FALSE(parseSize("KB").has_value());
    EXPECT_FALSE(parseSize("12XB").has_value());
    EXPECT_FALSE(parseSize("999999999999999999999999").has_value());
}

TEST(ParseSize, RoundTripsFormatSize)
{
    for (const std::uint64_t v :
         {1ull, 512ull, 1024ull, 32ull * 1024, 1ull << 30}) {
        EXPECT_EQ(parseSize(formatSize(v)), v);
    }
}

TEST(ParseUint, AcceptsWholeDecimalsInRange)
{
    EXPECT_EQ(parseUint("0", 0, 10).value(), 0u);
    EXPECT_EQ(parseUint("10", 0, 10).value(), 10u);
    EXPECT_EQ(parseUint("007", 1, 255).value(), 7u);
    EXPECT_EQ(parseUint("18446744073709551615", 0, ~0ull).value(), ~0ull);
}

TEST(ParseUint, RejectsGarbageRangeAndOverflow)
{
    for (const char *text : {"", "abc", "5k", "-1", "+1", " 1", "1 ",
                             "0x10", "1.5", "18446744073709551616"})
        EXPECT_FALSE(parseUint(text, 0, ~0ull).ok()) << text;
    const Result<std::uint64_t> low = parseUint("0", 1, 255);
    ASSERT_FALSE(low.ok());
    EXPECT_EQ(low.status().code(), StatusCode::CorruptInput);
    EXPECT_EQ(low.status().message(), "'0' is not an integer in 1..255");
    EXPECT_FALSE(parseUint("256", 1, 255).ok());
}

TEST(ParseDouble, AcceptsPlainDecimalsInRange)
{
    EXPECT_EQ(parseDouble("5", 0, 100).value(), 5.0);
    EXPECT_EQ(parseDouble("0.25", 0, 100).value(), 0.25);
    EXPECT_EQ(parseDouble(".5", 0, 100).value(), 0.5);
    EXPECT_EQ(parseDouble("1e2", 0, 100).value(), 100.0);
    EXPECT_EQ(parseDouble("2.5E-1", 0, 100).value(), 0.25);
    EXPECT_EQ(parseDouble("+7", 0, 100).value(), 7.0);
}

TEST(ParseDouble, RejectsTrailingTextNonFiniteAndNonPositive)
{
    for (const char *text :
         {"", "abc", "5abc", "5 ", " 5", "1e400", "1e-400", "inf",
          "-inf", "infinity", "nan", "NAN", "0x10", "0", "0.0", "-1",
          "-0", "1e", ".", "1..2", "101"})
        EXPECT_FALSE(parseDouble(text, 0, 100).ok()) << text;
    const Result<double> low = parseDouble("0.5", 1, 1000000);
    ASSERT_FALSE(low.ok());
    EXPECT_EQ(low.status().code(), StatusCode::CorruptInput);
    EXPECT_EQ(low.status().message(),
              "'0.5' is not a number above 0 in 1..1000000");
}

TEST(Split, BasicSplitting)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
}

TEST(Trim, RemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim(" \t\n "), "");
}

TEST(IEquals, CaseInsensitiveComparison)
{
    EXPECT_TRUE(iequals("LRU", "lru"));
    EXPECT_TRUE(iequals("", ""));
    EXPECT_FALSE(iequals("lru", "lr"));
    EXPECT_FALSE(iequals("abc", "abd"));
}

} // namespace
} // namespace dynex
