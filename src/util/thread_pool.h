/**
 * @file
 * A fixed-size task-queue thread pool with a blocking parallelFor
 * helper, shared by the simulation engine to fan independent
 * simulations out across cores.
 *
 * Design constraints, in order:
 *   1. Determinism — parallelFor only distributes *indices*; callers
 *      write results into pre-sized slots, so output never depends on
 *      scheduling.
 *   2. Composability — parallelFor may be called from inside a
 *      parallelFor body (nested loops). The calling thread always
 *      participates in its own loop, so progress never depends on a
 *      free worker being available and nesting cannot deadlock.
 *   3. Zero overhead when serial — with one configured worker (or a
 *      single-element loop) the body runs inline on the caller with no
 *      locking, no allocation, and no thread handoff.
 */

#ifndef DYNEX_UTIL_THREAD_POOL_H
#define DYNEX_UTIL_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dynex
{

/** Most worker threads any count may ask for: --threads, the
 * daemon's --workers, the load generator's --clients and
 * DYNEX_THREADS are held to it when parsed. */
inline constexpr unsigned kMaxWorkers = 256;

/** One captured exception of an error-aggregating parallel loop. */
struct IndexedError
{
    std::size_t index = 0;
    std::exception_ptr error;
};

/**
 * Fixed-size worker pool.
 *
 * The pool owns `workers - 1` background threads; the thread calling
 * parallelFor is always the remaining participant. Worker count is
 * fixed at construction. The process-wide instance (global()) sizes
 * itself from the DYNEX_THREADS environment variable, falling back to
 * std::thread::hardware_concurrency().
 */
class ThreadPool
{
  public:
    /** @param workers total participants per loop (>= 1); 0 means
     * "use configuredWorkers()". */
    explicit ThreadPool(unsigned workers = 0);

    /** Joins all background threads. No parallelFor may be in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total participants per loop (background threads + caller). */
    unsigned workers() const { return workerTarget; }

    /**
     * Run body(i) for every i in [0, n), distributing indices across
     * the pool; blocks until every index has completed. The calling
     * thread participates. If any body throws, the first exception is
     * rethrown here after the loop drains. Safe to call from inside
     * another parallelFor body.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * The error-aggregating variant of parallelFor: every index runs
     * regardless of failures, and instead of rethrowing the first
     * exception the loop drains *all* of them and returns one entry
     * per throwing index, sorted by index (so the result is
     * deterministic at any worker count). An empty vector means every
     * body completed. The pool remains fully usable afterwards.
     */
    std::vector<IndexedError>
    parallelForCollect(std::size_t n,
                       const std::function<void(std::size_t)> &body);

    /**
     * The worker count the process is configured for: the last
     * setConfiguredWorkers() value if set, else DYNEX_THREADS if set
     * and in 1..kMaxWorkers, else hardware_concurrency() (minimum 1).
     */
    static unsigned configuredWorkers();

    /**
     * Override the configured worker count (0 restores the automatic
     * DYNEX_THREADS / hardware default) and rebuild the global pool at
     * the new size. Must not be called while any thread is inside
     * global().parallelFor(). Used by the CLI --threads flag and by
     * tests that pin the thread count.
     */
    static void setConfiguredWorkers(unsigned workers);

    /** The process-wide pool, built on first use. */
    static ThreadPool &global();

    /**
     * Observation callback for loop-index execution: reports the index
     * and its wall-clock interval after the body returns (or throws).
     * The observability layer installs one to emit ThreadPool job
     * spans into a Chrome trace; keep it cheap and thread-safe.
     */
    using JobObserver =
        void (*)(std::size_t index,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end);

    /**
     * Install @p observer for every pool (nullptr disables). Read with
     * one relaxed atomic load per loop index, so the disabled cost is
     * a single predictable branch per index — never per reference.
     */
    static void setJobObserver(JobObserver observer);

  private:
    /** One parallelFor's shared state; helpers pull indices from it. */
    struct Loop
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t total = 0;
        const std::function<void(std::size_t)> *body = nullptr;
        std::mutex doneMutex;
        std::condition_variable doneCv;
        std::once_flag errorOnce;
        std::exception_ptr error;
        /** When set, every exception is appended here (under
         * errorsMutex) instead of keeping only the first. */
        std::vector<IndexedError> *errors = nullptr;
        std::mutex errorsMutex;
    };

    void workerMain();
    void runShared(std::size_t n,
                   const std::function<void(std::size_t)> &body,
                   std::vector<IndexedError> *errors);
    static void runLoop(Loop &loop);

    unsigned workerTarget;
    std::vector<std::thread> threads;
    std::deque<std::shared_ptr<Loop>> queue;
    std::mutex queueMutex;
    std::condition_variable queueCv;
    bool stopping = false;
};

} // namespace dynex

#endif // DYNEX_UTIL_THREAD_POOL_H
