/**
 * @file
 * Workload access for experiments: generates suite traces on demand,
 * one reference stream at a time, and memoizes the most recent few.
 *
 * The memo only saves regeneration when a caller revisits a stream
 * before three others push it out. A loop that visits every benchmark
 * once per configuration (configuration-outer, benchmark-inner, as the
 * hierarchy grid once did) regenerates every trace per configuration;
 * load each benchmark's stream once and fan its configurations out
 * instead.
 */

#ifndef DYNEX_SIM_WORKLOADS_H
#define DYNEX_SIM_WORKLOADS_H

#include <memory>
#include <string>

#include "trace/trace.h"

namespace dynex
{

/**
 * Trace provider with a tiny LRU memo (traces are tens of MB; only a
 * couple are kept alive).
 *
 * The default reference count mirrors the paper's "first 10 million
 * references" methodology scaled for bench runtime; override with the
 * DYNEX_REFS environment variable.
 */
class Workloads
{
  public:
    /** The default per-benchmark reference budget (DYNEX_REFS or the
     * built-in default). */
    static Count defaultRefs();

    /**
     * The first @p refs references of the benchmark's @p kind stream.
     * Filtered streams are generated directly (one walk of the
     * program, appending only the wanted kind), never by filtering a
     * longer mixed trace.
     */
    static std::shared_ptr<const Trace> stream(const std::string &name,
                                               Count refs,
                                               StreamKind kind);

    /** The benchmark's mixed instruction+data stream, @p refs long. */
    static std::shared_ptr<const Trace> mixed(const std::string &name,
                                              Count refs);

    /** The first @p refs instruction fetches of the benchmark. */
    static std::shared_ptr<const Trace> instructions(
        const std::string &name, Count refs);

    /** The first @p refs data references of the benchmark. */
    static std::shared_ptr<const Trace> data(const std::string &name,
                                             Count refs);

    /** Drop every memoized trace (tests use this to bound memory). */
    static void dropCache();
};

} // namespace dynex

#endif // DYNEX_SIM_WORKLOADS_H
