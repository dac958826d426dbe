#include "obs/json.h"

#include <cstdio>

namespace dynex
{
namespace obs
{

void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
jsonString(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    appendJsonString(out, text);
    return out;
}

std::string
jsonDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace obs
} // namespace dynex
