/**
 * @file
 * Tests of the shared JSON encoder: every byte value's string
 * encoding, appending after existing text, and the round-trippable
 * double format the reports' byte-identity rests on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"

namespace dynex::obs
{
namespace
{

/** The encoding the file comment of obs/json.h promises for one
 * byte, written out independently of the encoder. */
std::string
expectedEscape(unsigned char byte)
{
    switch (byte) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      case '\n': return "\\n";
      case '\r': return "\\r";
      case '\t': return "\\t";
      default: break;
    }
    if (byte < 0x20) {
        const char *hex = "0123456789abcdef";
        return std::string("\\u00") + hex[byte >> 4] + hex[byte & 0xf];
    }
    return std::string(1, static_cast<char>(byte));
}

TEST(ObsJson, EveryByteValueEncodesAsSpecified)
{
    std::string all;
    std::string expected_all = "\"";
    for (unsigned value = 0; value < 256; ++value) {
        const auto byte = static_cast<unsigned char>(value);
        const std::string text(1, static_cast<char>(byte));
        EXPECT_EQ(jsonString(text), '"' + expectedEscape(byte) + '"')
            << "byte " << value;
        all += text;
        expected_all += expectedEscape(byte);
    }
    EXPECT_EQ(jsonString(all), expected_all + '"');
    EXPECT_EQ(jsonString(""), "\"\"");
}

TEST(ObsJson, AppendKeepsTheExistingText)
{
    std::string out = "{\"k\":";
    appendJsonString(out, "a\"b");
    EXPECT_EQ(out, "{\"k\":\"a\\\"b\"");
}

TEST(ObsJson, DoublesRoundTripAndRenderStably)
{
    EXPECT_EQ(jsonDouble(1.0), "1");
    EXPECT_EQ(jsonDouble(0.1), "0.10000000000000001");
    EXPECT_EQ(jsonDouble(0.0), "0");
    for (const double value : {0.1, 1.0 / 3.0, 69.2215, 1e-300, 12345.678})
        EXPECT_EQ(std::strtod(jsonDouble(value).c_str(), nullptr), value);
}

} // namespace
} // namespace dynex::obs
