/**
 * @file
 * String helpers: byte-size formatting ("32KB") and parsing, the
 * checked number parses behind every numeric command-line flag, and
 * small text utilities.
 */

#ifndef DYNEX_UTIL_STRING_UTILS_H
#define DYNEX_UTIL_STRING_UTILS_H

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace dynex
{

/**
 * Format a byte count compactly: exact powers scale to "512B", "32KB",
 * "2MB"; non-multiples fall back to plain bytes.
 */
std::string formatSize(std::uint64_t bytes);

/**
 * Parse sizes like "512", "512B", "32KB", "32kb", "2MB".
 * @return std::nullopt on malformed input.
 */
std::optional<std::uint64_t> parseSize(const std::string &text);

/**
 * Parse @p text as a whole unsigned decimal in [@p min, @p max]:
 * digits only, with no sign, space, suffix or overflow.
 * @return the value, or CorruptInput naming the accepted range.
 */
Result<std::uint64_t> parseUint(const std::string &text,
                                std::uint64_t min, std::uint64_t max);

/**
 * Parse @p text as a whole decimal number (digits, '.', an optional
 * exponent) that is above 0 and in [@p min, @p max]: no space,
 * trailing text, hex, inf, nan, or value that over- or underflows a
 * double.
 * @return the value, or CorruptInput naming the accepted range.
 */
Result<double> parseDouble(const std::string &text, double min,
                           double max);

/**
 * parseUint (parseDouble when @p out is floating-point) for the value
 * @p text of numeric flag @p flag, stored in @p out (whose type holds
 * @p max). On failure prints "<tool>: bad <flag>: <reason>" to stderr
 * and returns false; the tools then exit 2. Every numeric flag of
 * dynex, dynex_serve and dynex_loadgen is parsed here, so a typo or an
 * out-of-range value never becomes a silent 0, an infinity or a
 * narrowing wrap.
 */
template <typename T>
bool
parseFlag(const char *tool, const std::string &flag,
          const std::string &text, std::uint64_t min, std::uint64_t max,
          T &out)
{
    const auto value = [&] {
        if constexpr (std::is_floating_point_v<T>)
            return parseDouble(text, static_cast<double>(min),
                               static_cast<double>(max));
        else
            return parseUint(text, min, max);
    }();
    if (!value.ok()) {
        std::fprintf(stderr, "%s: bad %s: %s\n", tool, flag.c_str(),
                     value.status().message().c_str());
        return false;
    }
    out = static_cast<T>(value.value());
    return true;
}

/** Split @p text on @p delimiter (no empty trailing element). */
std::vector<std::string> split(const std::string &text, char delimiter);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &text);

/** Case-insensitive ASCII string equality. */
bool iequals(const std::string &a, const std::string &b);

} // namespace dynex

#endif // DYNEX_UTIL_STRING_UTILS_H
