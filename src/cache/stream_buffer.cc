#include "cache/stream_buffer.h"

#include <algorithm>

#include "util/logging.h"

namespace dynex
{

StreamBufferCache::StreamBufferCache(std::unique_ptr<CacheModel> backing_cache,
                                     std::uint32_t buffer_depth)
    : CacheModel(backing_cache->geometry()),
      backing(std::move(backing_cache)), depth(buffer_depth)
{
    DYNEX_ASSERT(depth >= 1, "stream buffer depth must be at least 1");
    buffered.reserve(depth);
}

void
StreamBufferCache::reset()
{
    backing->reset();
    buffered.clear();
    streamHitCount = 0;
    resetStats();
}

std::string
StreamBufferCache::name() const
{
    return backing->name() + "+stream" + std::to_string(depth);
}

AccessOutcome
StreamBufferCache::doAccess(const MemRef &ref, Tick tick)
{
    const Addr block = blockOf(ref.addr);

    // The backing cache sees every reference so its replacement state
    // stays faithful; its outcome decides hit/miss unless the buffer
    // covers the miss.
    AccessOutcome outcome = backing->access(ref, tick);
    if (outcome.hit)
        return outcome;

    const auto it = std::find(buffered.begin(), buffered.end(), block);
    if (it != buffered.end()) {
        // Buffer hit: lines up to and including the match drain; the
        // buffer continues prefetching the following sequential lines.
        ++streamHitCount;
        const Addr last = buffered.back();
        const auto drained =
            static_cast<std::size_t>(it - buffered.begin()) + 1;
        buffered.erase(buffered.begin(), buffered.begin() + drained);
        for (std::size_t i = 0; buffered.size() < depth; ++i)
            buffered.push_back(last + 1 + i);
        outcome.hit = true;
        outcome.filled = false;
        outcome.bypassed = false;
        return outcome;
    }

    // Miss everywhere: restart the buffer at the next sequential line.
    buffered.clear();
    for (std::uint32_t i = 1; i <= depth; ++i)
        buffered.push_back(block + i);
    return outcome;
}

} // namespace dynex
