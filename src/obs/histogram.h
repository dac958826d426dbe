/**
 * @file
 * The one log2 histogram, and the deterministic latency histograms of
 * the serving path built on it.
 *
 * A Log2Histogram is 64 fixed log2 buckets: bucket i counts samples in
 * [2^i, 2^(i+1)) (a value of 0 lands in bucket 0), which covers the
 * whole u64 range. It records server latencies in nanoseconds and, in
 * `dynex analyze`, block reuse distances in lines. Aggregation is an
 * integer sum of bucket counts, which is associative and therefore
 * independent of recording order and worker count; quantiles are a
 * pure function of the bucket counts.
 *
 * A HistogramSet holds one Log2Histogram per Latency series
 * (end-to-end latency per request type, queue wait, admission
 * decision, store load, replay, serialize) in per-thread shards.
 * Recording is an increment into the calling thread's shard (no
 * allocation, no locking after a thread's first touch), so for a fixed
 * sample set the exported p50/p95/p99/max rows are bit-identical
 * whether the server ran 1, 2 or 8 workers. The set sits behind the
 * same active-pointer install pattern as MetricsCollector, and exports
 * snapshots as the `lat-*` STATS rows the CLI dashboard and Prometheus
 * exposition render.
 */

#ifndef DYNEX_OBS_HISTOGRAM_H
#define DYNEX_OBS_HISTOGRAM_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dynex
{
namespace obs
{

/** The latency series a server records. */
enum class Latency : std::uint8_t
{
    E2ePing,    ///< end-to-end handling of a ping request
    E2eList,    ///< end-to-end handling of a list request
    E2eReplay,  ///< end-to-end handling of a replay request
    E2eSweep,   ///< end-to-end handling of a sweep request
    E2eStats,   ///< end-to-end handling of a stats request
    E2eHello,   ///< end-to-end handling of a hello request
    QueueWait,  ///< accept-to-worker-pickup wait in the accept queue
    Admission,  ///< admission-control decision time
    StoreLoad,  ///< TraceStore acquire (hit, wait or load)
    Replay,     ///< the simulation work itself
    Serialize,  ///< response body encode time
};

inline constexpr std::size_t kLatencyCount = 11;

/** Number of log2 buckets; covers the full u64 range. */
inline constexpr std::size_t kHistogramBuckets = 64;

/** Stable lowercase name ("e2e-ping", "queue-wait", ...). */
const char *latencyName(Latency series);

/** The log2 bucket for @p value: floor(log2(value)), 0 for value <= 1. */
std::size_t histogramBucket(std::uint64_t value);

/** Inclusive upper bound of bucket @p index (2^(i+1) - 1, saturated). */
std::uint64_t histogramBucketUpper(std::size_t index);

/** A histogram over kHistogramBuckets log2 buckets (see the file
 * comment). Percentile queries and row export run on a merged value,
 * never on live shards. */
struct Log2Histogram
{
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0; ///< total weight of all samples
    std::uint64_t sum = 0;   ///< sum of value x weight
    std::uint64_t max = 0;   ///< largest value added

    /** Add @p weight samples of @p value. */
    void add(std::uint64_t value, std::uint64_t weight = 1);

    /** Fold another histogram in (order-independent integer sums). */
    void merge(const Log2Histogram &other);

    /**
     * The first bucket whose cumulative count reaches rank
     * q x count, the rank clamped into [1, count] (so a one-sample
     * histogram answers with the sample's bucket for every q). 0 when
     * empty. @p q is in [0,1].
     */
    std::size_t quantileBucket(double q) const;

    /** The upper bound of quantileBucket(@p q), clamped to max so a
     * one-sample histogram reports the sample, not its bucket
     * ceiling. 0 when empty. */
    std::uint64_t percentile(double q) const;

    /** Render the non-empty buckets as "[lo, hi]: count" lines. */
    std::string toString() const;
};

/**
 * One process's set of latency histograms: per-thread shards, each
 * holding all kLatencyCount series, registered on first touch exactly
 * like MetricsCollector's counter shards.
 */
class HistogramSet
{
  public:
    HistogramSet();
    HistogramSet(const HistogramSet &) = delete;
    HistogramSet &operator=(const HistogramSet &) = delete;

    /** Record @p ns into @p series on this thread's shard. */
    void record(Latency series, std::uint64_t ns);

    /** Merge all shards of @p series into one histogram. */
    Log2Histogram snapshot(Latency series) const;

    /**
     * Append the `lat-*` STATS rows for every non-empty series, in
     * Latency declaration order: count, sum-us, p50/p95/p99/max-us,
     * then cumulative `le` bucket rows up to the highest non-empty
     * bucket. Empty series emit nothing, so a fresh server's stats
     * stay compact.
     */
    void appendStatsRows(
        std::vector<std::pair<std::string, std::uint64_t>> &rows) const;

  private:
    struct Shard
    {
        std::array<Log2Histogram, kLatencyCount> series{};
    };

    Shard &shardForThisThread();

    /** Process-unique id keying the per-thread shard cache (see
     * MetricsCollector::shardForThisThread for the aliasing hazard). */
    const std::uint64_t setId;

    mutable std::mutex shardMutex;
    std::vector<std::unique_ptr<Shard>> shards;
};

/** The installed set, or nullptr: one relaxed atomic load. */
HistogramSet *activeHistograms();

/** Install @p set (nullptr disables). Caller owns the lifetime. */
void setActiveHistograms(HistogramSet *set);

/**
 * Append one latency snapshot's rows (values in ns) under @p name
 * using the export naming convention (`lat-<name>-count`, `-sum-us`,
 * `-p50-us`, `-p95-us`, `-p99-us`, `-max-us`, then `-le-<ns>`
 * cumulative buckets). Shared by HistogramSet::appendStatsRows and
 * tests.
 */
void appendSnapshotRows(
    const std::string &name, const Log2Histogram &snap,
    std::vector<std::pair<std::string, std::uint64_t>> &rows);

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_HISTOGRAM_H
