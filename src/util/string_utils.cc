#include "util/string_utils.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace dynex
{

std::string
formatSize(std::uint64_t bytes)
{
    static constexpr const char *units[] = {"B", "KB", "MB", "GB", "TB"};
    std::uint64_t value = bytes;
    std::size_t unit = 0;
    while (unit + 1 < std::size(units) && value >= 1024 &&
           value % 1024 == 0) {
        value /= 1024;
        ++unit;
    }
    std::ostringstream oss;
    oss << value << units[unit];
    return oss.str();
}

std::optional<std::uint64_t>
parseSize(const std::string &text)
{
    const std::string s = trim(text);
    if (s.empty())
        return std::nullopt;

    std::size_t pos = 0;
    while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos])))
        ++pos;
    if (pos == 0)
        return std::nullopt;

    std::uint64_t value = 0;
    for (std::size_t i = 0; i < pos; ++i) {
        const auto digit = static_cast<std::uint64_t>(s[i] - '0');
        if (value > (~std::uint64_t{0} - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }

    std::string suffix;
    for (std::size_t i = pos; i < s.size(); ++i)
        suffix += static_cast<char>(
            std::toupper(static_cast<unsigned char>(s[i])));

    std::uint64_t scale = 1;
    if (suffix.empty() || suffix == "B")
        scale = 1;
    else if (suffix == "K" || suffix == "KB")
        scale = 1024;
    else if (suffix == "M" || suffix == "MB")
        scale = 1024ull * 1024;
    else if (suffix == "G" || suffix == "GB")
        scale = 1024ull * 1024 * 1024;
    else
        return std::nullopt;

    if (scale != 1 && value > ~std::uint64_t{0} / scale)
        return std::nullopt;
    return value * scale;
}

Result<std::uint64_t>
parseUint(const std::string &text, std::uint64_t min, std::uint64_t max)
{
    std::uint64_t value = 0;
    bool valid = !text.empty();
    for (const char c : text) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' ||
            value > (~std::uint64_t{0} - digit) / 10) {
            valid = false;
            break;
        }
        value = value * 10 + digit;
    }
    if (!valid || value < min || value > max)
        return Status::corruptInput("'" + text +
                                    "' is not an integer in " +
                                    std::to_string(min) + ".." +
                                    std::to_string(max));
    return value;
}

Result<double>
parseDouble(const std::string &text, double min, double max)
{
    // strtod alone would skip leading space and read hex floats, inf
    // and nan, so only plain decimal characters reach it.
    bool valid = !text.empty() &&
                 text.find_first_not_of("0123456789.eE+-") ==
                     std::string::npos;
    double value = 0;
    if (valid) {
        errno = 0;
        char *end = nullptr;
        value = std::strtod(text.c_str(), &end);
        valid = errno == 0 && end == text.c_str() + text.size() &&
                std::isfinite(value) && value > 0 && value >= min &&
                value <= max;
    }
    if (!valid) {
        char range[64];
        std::snprintf(range, sizeof range, "%.15g..%.15g", min, max);
        return Status::corruptInput("'" + text +
                                    "' is not a number above 0 in " +
                                    range);
    }
    return value;
}

std::vector<std::string>
split(const std::string &text, char delimiter)
{
    std::vector<std::string> parts;
    std::string current;
    for (char ch : text) {
        if (ch == delimiter) {
            parts.push_back(current);
            current.clear();
        } else {
            current += ch;
        }
    }
    if (!current.empty() || !parts.empty())
        parts.push_back(current);
    if (!parts.empty() && parts.back().empty())
        parts.pop_back();
    return parts;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

} // namespace dynex
