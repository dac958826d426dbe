#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::int64_t
SpanLog::begin(const std::string &name, std::int64_t parent)
{
    const std::uint64_t start = nowNs();
    const std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, start, start, parent});
    return static_cast<std::int64_t>(spans.size() - 1);
}

void
SpanLog::end(std::int64_t id)
{
    const std::uint64_t stop = nowNs();
    const std::lock_guard<std::mutex> lock(mutex);
    spans[static_cast<std::size_t>(id)].endNs = stop;
}

std::vector<Span>
SpanLog::snapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return spans;
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    const std::vector<Span> all = snapshot();
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(all.size());
    for (const Span &span : all)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        // Children may run in parallel on other threads: subtract the
        // union of their intervals, clipped to the parent's.
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0;
        std::uint64_t cursor = span.startNs;
        for (const auto &[start, stop] : kids) {
            const std::uint64_t from = std::max(start, cursor);
            const std::uint64_t to = std::min(stop, span.endNs);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        const std::uint64_t duration = span.endNs - span.startNs;
        self[span.name] +=
            static_cast<double>(duration - std::min(duration, covered)) /
            1e9;
    }
    return self;
}

std::map<std::string, double>
SpanLog::totalSeconds() const
{
    std::map<std::string, double> total;
    for (const Span &span : snapshot())
        total[span.name] +=
            static_cast<double>(span.endNs - span.startNs) / 1e9;
    return total;
}

std::map<std::string, std::uint64_t>
SpanLog::counts() const
{
    std::map<std::string, std::uint64_t> count;
    for (const Span &span : snapshot())
        ++count[span.name];
    return count;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const std::vector<Span> all = snapshot();
    const std::uint64_t origin = all.empty() ? 0 : all.front().startNs;
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < all.size(); ++i)
        std::fprintf(out,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                     "\"end_ns\": %llu, \"parent\": %lld}%s\n",
                     i, all[i].name.c_str(),
                     static_cast<unsigned long long>(all[i].startNs -
                                                     origin),
                     static_cast<unsigned long long>(all[i].endNs - origin),
                     static_cast<long long>(all[i].parent),
                     i + 1 < all.size() ? "," : "");
    std::fputs("]\n", out);
    return std::fclose(out) == 0;
}

} // namespace perfbench
