#include "sim/workloads.h"

#include <cstdlib>
#include <deque>
#include <mutex>
#include <utility>

#include "tracegen/spec.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace dynex
{

namespace
{

constexpr Count kBuiltinDefaultRefs = 2'000'000;
constexpr std::size_t kMemoCapacity = 3;

struct MemoEntry
{
    std::string key;
    std::shared_ptr<const Trace> trace;
};

std::deque<MemoEntry> &
memo()
{
    static std::deque<MemoEntry> entries;
    return entries;
}

/**
 * Guards the memo against the parallel sweep engine, which loads
 * traces from worker threads. Generation happens outside the lock;
 * concurrent generation of the same key is wasted work but harmless
 * (generation is deterministic, so both products are identical).
 */
std::mutex &
memoMutex()
{
    static std::mutex m;
    return m;
}

std::shared_ptr<const Trace>
memoLookup(const std::string &key)
{
    const std::lock_guard<std::mutex> lock(memoMutex());
    for (const auto &entry : memo()) {
        if (entry.key == key)
            return entry.trace;
    }
    return nullptr;
}

void
memoInsert(std::string key, std::shared_ptr<const Trace> trace)
{
    const std::lock_guard<std::mutex> lock(memoMutex());
    memo().push_front({std::move(key), std::move(trace)});
    while (memo().size() > kMemoCapacity)
        memo().pop_back();
}

} // namespace

Count
Workloads::defaultRefs()
{
    if (const char *env = std::getenv("DYNEX_REFS")) {
        const Result<std::uint64_t> value =
            parseUint(env, 1, ~std::uint64_t{0});
        if (value.ok())
            return value.value();
        DYNEX_WARN("ignoring invalid DYNEX_REFS: ",
                   value.status().message());
    }
    return kBuiltinDefaultRefs;
}

std::shared_ptr<const Trace>
Workloads::stream(const std::string &name, Count refs, StreamKind kind)
{
    const std::string key = std::string(streamKindName(kind)) + ":" +
                            name + ":" + std::to_string(refs);
    if (auto hit = memoLookup(key))
        return hit;
    auto trace =
        std::make_shared<const Trace>(makeSpecTrace(name, refs, kind));
    memoInsert(key, trace);
    return trace;
}

std::shared_ptr<const Trace>
Workloads::mixed(const std::string &name, Count refs)
{
    return stream(name, refs, StreamKind::Mixed);
}

std::shared_ptr<const Trace>
Workloads::instructions(const std::string &name, Count refs)
{
    return stream(name, refs, StreamKind::Instructions);
}

std::shared_ptr<const Trace>
Workloads::data(const std::string &name, Count refs)
{
    return stream(name, refs, StreamKind::Data);
}

void
Workloads::dropCache()
{
    const std::lock_guard<std::mutex> lock(memoMutex());
    memo().clear();
}

} // namespace dynex
