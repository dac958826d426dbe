/**
 * @file
 * Error / status reporting in the gem5 idiom: panic() for internal bugs,
 * fatal() for user errors, warn() for status messages.
 */

#ifndef DYNEX_UTIL_LOGGING_H
#define DYNEX_UTIL_LOGGING_H

#include <sstream>
#include <string>

namespace dynex
{

namespace detail
{

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    ((oss << std::forward<Args>(args)), ...);
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &message);
void warnImpl(const std::string &message);

} // namespace detail

/**
 * Report an internal invariant violation (a library bug) and abort.
 * Use for conditions that should be impossible regardless of user input.
 */
#define DYNEX_PANIC(...) \
    ::dynex::detail::panicImpl(__FILE__, __LINE__, \
                               ::dynex::detail::concat(__VA_ARGS__))

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit(1).
 */
#define DYNEX_FATAL(...) \
    ::dynex::detail::fatalImpl(__FILE__, __LINE__, \
                               ::dynex::detail::concat(__VA_ARGS__))

/** Warn about a suspicious but survivable condition. */
#define DYNEX_WARN(...) \
    ::dynex::detail::warnImpl(::dynex::detail::concat(__VA_ARGS__))

/** Panic unless @p cond holds. */
#define DYNEX_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            DYNEX_PANIC("assertion failed: " #cond " ", __VA_ARGS__); \
        } \
    } while (false)

} // namespace dynex

#endif // DYNEX_UTIL_LOGGING_H
