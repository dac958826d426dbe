/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * A span is one timed call into a layer: name, start, end and the span
 * that caused it. Spans are appended under a mutex (they are coarse:
 * one per layer call, never per reference), kept in memory, and written
 * out once the pass ends. A layer's self time is its spans' durations
 * minus the part of each interval that its child spans cover.
 */

#ifndef DYNEX_PERFBENCH_SPANS_H
#define DYNEX_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds. */
std::uint64_t nowNs();

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = -1; ///< index of the causing span, -1 = root
};

class SpanLog
{
  public:
    /** Open a span; returns its id. */
    std::int64_t begin(const std::string &name, std::int64_t parent);

    /** Close span @p id at the current time. */
    void end(std::int64_t id);

    /** Self time in seconds, summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Summed duration in seconds per span name. */
    std::map<std::string, double> totalSeconds() const;

    /** Number of spans per name. */
    std::map<std::string, std::uint64_t> counts() const;

    /** Write every span as a JSON array to @p path; false on error. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> snapshot() const;

    mutable std::mutex mutex;
    std::vector<Span> spans; // guarded by mutex
};

/** RAII span; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name,
               std::int64_t parent = -1)
        : log(log), spanId(log ? log->begin(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log)
            log->end(spanId);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return spanId; }

  private:
    SpanLog *const log;
    const std::int64_t spanId;
};

} // namespace perfbench

#endif // DYNEX_PERFBENCH_SPANS_H
