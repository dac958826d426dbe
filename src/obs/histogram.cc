#include "obs/histogram.h"

#include <atomic>
#include <bit>
#include <string>

namespace dynex
{
namespace obs
{

namespace
{

std::atomic<HistogramSet *> activeSet{nullptr};

std::atomic<std::uint64_t> nextSetId{1};

} // namespace

const char *
latencyName(Latency series)
{
    switch (series) {
      case Latency::E2ePing: return "e2e-ping";
      case Latency::E2eList: return "e2e-list";
      case Latency::E2eReplay: return "e2e-replay";
      case Latency::E2eSweep: return "e2e-sweep";
      case Latency::E2eStats: return "e2e-stats";
      case Latency::E2eHello: return "e2e-hello";
      case Latency::QueueWait: return "queue-wait";
      case Latency::Admission: return "admission";
      case Latency::StoreLoad: return "store-load";
      case Latency::Replay: return "replay";
      case Latency::Serialize: return "serialize";
    }
    return "unknown";
}

std::size_t
histogramBucket(std::uint64_t value)
{
    return value <= 1
               ? 0
               : static_cast<std::size_t>(63 - std::countl_zero(value));
}

std::uint64_t
histogramBucketUpper(std::size_t index)
{
    if (index >= kHistogramBuckets - 1)
        return ~0ull;
    return (2ull << index) - 1;
}

void
Log2Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    buckets[histogramBucket(value)] += weight;
    count += weight;
    sum += value * weight;
    if (value > max)
        max = value;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    max = max < other.max ? other.max : max;
}

std::size_t
Log2Histogram::quantileBucket(double q) const
{
    // Rank of the q-th sample, 1-based, clamped into [1, count].
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        seen += buckets[i];
        if (seen >= rank)
            return i;
    }
    return 0;
}

std::uint64_t
Log2Histogram::percentile(double q) const
{
    if (count == 0)
        return 0;
    const std::uint64_t upper = histogramBucketUpper(quantileBucket(q));
    return upper < max ? upper : max;
}

std::string
Log2Histogram::toString() const
{
    std::string out;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        const std::uint64_t lo = i == 0 ? 0 : std::uint64_t{1} << i;
        out += "[" + std::to_string(lo) + ", " +
               std::to_string(histogramBucketUpper(i)) +
               "]: " + std::to_string(buckets[i]) + "\n";
    }
    return out;
}

HistogramSet::HistogramSet() : setId(nextSetId.fetch_add(1)) {}

HistogramSet::Shard &
HistogramSet::shardForThisThread()
{
    thread_local std::uint64_t cachedOwner = 0;
    thread_local Shard *cachedShard = nullptr;
    if (cachedOwner != setId) {
        std::lock_guard<std::mutex> lock(shardMutex);
        shards.push_back(std::make_unique<Shard>());
        cachedShard = shards.back().get();
        cachedOwner = setId;
    }
    return *cachedShard;
}

void
HistogramSet::record(Latency series, std::uint64_t ns)
{
    shardForThisThread().series[static_cast<std::size_t>(series)].add(ns);
}

Log2Histogram
HistogramSet::snapshot(Latency series) const
{
    const std::size_t index = static_cast<std::size_t>(series);
    Log2Histogram snap;
    std::lock_guard<std::mutex> lock(shardMutex);
    for (const auto &shard : shards)
        snap.merge(shard->series[index]);
    return snap;
}

void
appendSnapshotRows(
    const std::string &name, const Log2Histogram &snap,
    std::vector<std::pair<std::string, std::uint64_t>> &rows)
{
    const std::string prefix = "lat-" + name;
    rows.emplace_back(prefix + "-count", snap.count);
    rows.emplace_back(prefix + "-sum-us", snap.sum / 1000);
    rows.emplace_back(prefix + "-p50-us", snap.percentile(0.50) / 1000);
    rows.emplace_back(prefix + "-p95-us", snap.percentile(0.95) / 1000);
    rows.emplace_back(prefix + "-p99-us", snap.percentile(0.99) / 1000);
    rows.emplace_back(prefix + "-max-us", snap.max / 1000);
    // Cumulative bucket rows up to the highest non-empty bucket: the
    // Prometheus renderer turns these into classic `le` buckets.
    std::size_t top = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        if (snap.buckets[i] != 0)
            top = i;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= top; ++i) {
        cumulative += snap.buckets[i];
        rows.emplace_back(prefix + "-le-" +
                              std::to_string(histogramBucketUpper(i)),
                          cumulative);
    }
}

void
HistogramSet::appendStatsRows(
    std::vector<std::pair<std::string, std::uint64_t>> &rows) const
{
    for (std::size_t i = 0; i < kLatencyCount; ++i) {
        const Latency series = static_cast<Latency>(i);
        const Log2Histogram snap = snapshot(series);
        if (snap.count == 0)
            continue;
        appendSnapshotRows(latencyName(series), snap, rows);
    }
}

HistogramSet *
activeHistograms()
{
    return activeSet.load(std::memory_order_relaxed);
}

void
setActiveHistograms(HistogramSet *set)
{
    activeSet.store(set, std::memory_order_relaxed);
}

} // namespace obs
} // namespace dynex
