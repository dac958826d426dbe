#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace dynex
{
namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", message.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", message.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &message)
{
    std::fprintf(stderr, "warn: %s\n", message.c_str());
}

} // namespace detail
} // namespace dynex
