/**
 * @file
 * The JSON text encoding every observability output shares: run
 * reports, campaign reports, JSONL log lines, and the Chrome trace
 * events of the tracer and of trace-merge. One definition keeps their
 * bytes in step.
 */

#ifndef DYNEX_OBS_JSON_H
#define DYNEX_OBS_JSON_H

#include <string>
#include <string_view>

namespace dynex
{
namespace obs
{

/**
 * Append @p text to @p out as a quoted JSON string. Quote and
 * backslash are escaped, `\n`, `\r` and `\t` use their short escapes,
 * every other byte below 0x20 becomes `\u00XX`, and every other byte
 * (UTF-8 sequences included) passes through unchanged.
 */
void appendJsonString(std::string &out, std::string_view text);

/** @p text as a quoted JSON string (see appendJsonString). */
std::string jsonString(std::string_view text);

/** A double with 17 significant digits, enough to round-trip: the
 * same double always renders the same bytes, which the byte-identity
 * of every report rests on. */
std::string jsonDouble(double value);

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_JSON_H
