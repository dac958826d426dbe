/**
 * Equivalence tests of the SoA replay kernel: every statistic and FSM
 * event count must be EXPECT_EQ-exact against the per-leg object
 * models across line sizes, DE configurations, both hit-last lanes,
 * worker counts, checked/unchecked paths, and both dispatch ISAs.
 */

#include <gtest/gtest.h>

#include "sim/kernel.h"
#include "sim/sweep.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynex
{
namespace
{

/** Restores the automatic thread configuration when a test exits. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { ThreadPool::setConfiguredWorkers(0); }
};

/** Restores the kernel's natural ISA dispatch when a test exits. */
struct ScalarGuard
{
    ~ScalarGuard() { setKernelForceScalar(false); }
};

void
expectStatsEq(const CacheStats &kernel, const CacheStats &reference,
              const std::string &label)
{
    EXPECT_EQ(kernel.accesses, reference.accesses) << label;
    EXPECT_EQ(kernel.hits, reference.hits) << label;
    EXPECT_EQ(kernel.misses, reference.misses) << label;
    EXPECT_EQ(kernel.coldMisses, reference.coldMisses) << label;
    EXPECT_EQ(kernel.fills, reference.fills) << label;
    EXPECT_EQ(kernel.bypasses, reference.bypasses) << label;
    EXPECT_EQ(kernel.evictions, reference.evictions) << label;
}

void
expectTriadEq(const TriadResult &kernel, const TriadResult &reference,
              const std::string &label)
{
    expectStatsEq(kernel.dm, reference.dm, "dm " + label);
    expectStatsEq(kernel.de, reference.de, "de " + label);
    expectStatsEq(kernel.opt, reference.opt, "opt " + label);
    for (std::size_t e = 0; e < 5; ++e)
        EXPECT_EQ(kernel.deEvents.byEvent[e],
                  reference.deEvents.byEvent[e])
            << label << " event " << e;
}

/** Every leg of @p kernel against a per-leg runTriad reference. */
void
expectMatchesPerLeg(const std::vector<TriadResult> &kernel,
                    const Trace &trace, const NextUseIndex &index,
                    const std::vector<std::uint64_t> &sizes,
                    std::uint32_t line,
                    const DynamicExclusionConfig &config,
                    const std::string &label)
{
    ASSERT_EQ(kernel.size(), sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(kernel[s],
                      runTriad(trace, index, sizes[s], line, config),
                      label + " size " + std::to_string(sizes[s]));
}

/** A conflict-heavy loopy trace with a pseudo-random data sprinkle. */
Trace
kernelTrace(std::size_t refs, std::uint64_t seed = 0x8a7c3)
{
    Rng rng(seed);
    Trace trace("kernel");
    trace.reserve(refs);
    while (trace.size() < refs) {
        const Addr base = 0x1000 + 4 * rng.nextBelow(4096);
        const int body = 2 + static_cast<int>(rng.nextBelow(20));
        for (int j = 0; j < body && trace.size() < refs; ++j)
            trace.append(ifetch(base + 4 * static_cast<Addr>(j)));
        trace.append(load(0x90000 + 8 * rng.nextBelow(512)));
    }
    trace.mutableRecords().resize(refs);
    return trace;
}

TEST(KernelReplay, MatchesPerLegAtEverySizeAndLine)
{
    const Trace trace = kernelTrace(30000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096,
                                              16 * 1024};
    for (const std::uint32_t line : {4u, 16u}) {
        const NextUseIndex index(trace, line, NextUseMode::RunStart);
        DynamicExclusionConfig config;
        config.useLastLine = line > 4;
        expectMatchesPerLeg(
            replayTriadKernel(trace, index, sizes, line, config), trace,
            index, sizes, line, config, "line " + std::to_string(line));
    }
}

TEST(KernelReplay, MatchesPerLegWithNonDefaultDeConfig)
{
    const Trace trace = kernelTrace(20000, 0x51c);
    const std::vector<std::uint64_t> sizes = {512, 2048};
    const std::uint32_t line = 8;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    DynamicExclusionConfig config;
    config.stickyMax = 3;
    config.useLastLine = true;
    config.initialHitLast = true;
    expectMatchesPerLeg(
        replayTriadKernel(trace, index, sizes, line, config), trace,
        index, sizes, line, config, "sticky3");
}

/**
 * kernelTrace's loops with every fifth reference drawn from a pool of
 * 64 blocks that runs up to exactly @p max_block at @p line
 * granularity, all shifted up by @p base blocks. The pool blocks recur
 * and share sets with the loops, so their hit-last bits decide real
 * conflicts, and they spread over the whole bitmap, so its pages are
 * touched far apart.
 */
Trace
boundaryTrace(Addr max_block, std::uint32_t line, Addr base = 0)
{
    Rng rng(0xb0d7 ^ max_block);
    std::vector<Addr> pool = {max_block, max_block - 1, 0};
    while (pool.size() < 64)
        pool.push_back(rng.nextBelow(2) ? max_block - rng.nextBelow(4096)
                                        : rng.nextBelow(max_block));
    const Trace loops = kernelTrace(10000, 0xb0d7);
    Trace trace("boundary");
    trace.append(load(max_block * line));
    for (std::size_t i = 0; i < loops.size(); ++i) {
        trace.append(loops[i]);
        if (i % 5 == 0)
            trace.append(load(pool[rng.nextBelow(pool.size())] * line));
    }
    for (MemRef &ref : trace.mutableRecords())
        ref.addr += base * line;
    return trace;
}

TEST(KernelReplay, SparseBlocksFallBackToTheIdealStore)
{
    ThreadCountGuard guard;
    // The flat hit-last bitmap covers a cold-false leg whose blocks
    // span less than 2^26 from their lowest block rounded down to a
    // multiple of 64; a span at the cap, a cold-true start, or blocks
    // far apart use the IdealHitLastStore lane, with identical values.
    // The spans start at block 0, at 2^26 (where the suite's data
    // streams start at 4-byte lines), and at an unaligned block higher
    // up, whose bitmap base rounds down by 37.
    struct Case
    {
        std::string label;
        Trace trace;
        std::uint32_t line;
        DynamicExclusionConfig config;
    };
    std::vector<Case> cases;
    const Addr cap = Addr{1} << 26;
    const struct
    {
        Addr base;
        Addr slack; // blocks between the bitmap base and the lowest block
    } starts[] = {{0, 0}, {cap, 0}, {3 * cap + 37, 37}};
    for (const auto &start : starts) {
        for (const Addr top : {cap - 1 - start.slack, cap - start.slack}) {
            for (const std::uint32_t line : {4u, 16u}) {
                for (const bool initial : {false, true}) {
                    DynamicExclusionConfig config;
                    config.useLastLine = line > 4;
                    config.initialHitLast = initial;
                    cases.push_back(
                        {"base " + std::to_string(start.base) +
                             " top " + std::to_string(top) + " line " +
                             std::to_string(line) + " initial " +
                             std::to_string(initial),
                         boundaryTrace(top, line, start.base), line,
                         config});
                }
            }
        }
    }
    Rng rng(0xfee1);
    Trace far("sparse");
    for (int i = 0; i < 8000; ++i) {
        const Addr page = rng.nextBelow(8) << 40;
        far.append(ifetch(page + 4 * rng.nextBelow(64)));
    }
    cases.push_back({"far", far, 4, {}});
    // Address ~0 at the smallest line is block 2^63 - 1, an ordinary
    // block; at the one-byte lines the geometry rejects it would be the
    // kAddrInvalid tag an empty lane holds.
    Trace top("top");
    for (const Addr addr : {~Addr{0}, Addr{0x10}, ~Addr{0}})
        top.append(load(addr));
    cases.push_back({"top", top, 2, {}});

    const std::vector<std::uint64_t> sizes = {256, 4096};
    for (const unsigned workers : {1u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ThreadPool::setConfiguredWorkers(workers);
        // Concurrent passes, each mapping its own bitmaps.
        std::vector<std::vector<TriadResult>> kernel(cases.size());
        ThreadPool::global().parallelFor(cases.size(), [&](std::size_t c) {
            const NextUseIndex index(cases[c].trace, cases[c].line,
                                     NextUseMode::RunStart);
            kernel[c] = replayTriadKernel(cases[c].trace, index, sizes,
                                          cases[c].line, cases[c].config);
        });
        for (std::size_t c = 0; c < cases.size(); ++c) {
            const NextUseIndex index(cases[c].trace, cases[c].line,
                                     NextUseMode::RunStart);
            expectMatchesPerLeg(kernel[c], cases[c].trace, index, sizes,
                                cases[c].line, cases[c].config,
                                cases[c].label);
        }
    }
}

TEST(KernelReplay, ScalarDispatchIsBitIdenticalToTheNaturalIsa)
{
    ScalarGuard guard;
    const Trace trace = kernelTrace(25000, 0xd15b);
    const std::uint32_t line = 16;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    DynamicExclusionConfig config;
    config.useLastLine = true;
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024};

    setKernelForceScalar(false);
    const KernelIsa natural = kernelDispatchIsa();
    const auto fast =
        replayTriadKernel(trace, index, sizes, line, config);

    setKernelForceScalar(true);
    EXPECT_TRUE(kernelForceScalar());
    EXPECT_EQ(kernelDispatchIsa(), KernelIsa::Scalar);
    const auto scalar =
        replayTriadKernel(trace, index, sizes, line, config);

    // On AVX2 hardware this compares the two code paths; elsewhere it
    // still proves the forced-scalar path is the dispatched one, so a
    // CI machine without AVX2 exercises the fallback by construction.
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(scalar[s], fast[s],
                      std::string("isa ") + kernelIsaName(natural) +
                          " size " + std::to_string(sizes[s]));
}

TEST(KernelReplay, SweepSizesKernelIdenticalAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const Trace trace = kernelTrace(30000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSizes(trace, sizes, 4, {}, ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine :
             {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
            const auto points = sweepSizes(trace, sizes, 4, {}, engine);
            ASSERT_EQ(points.size(), reference.size());
            for (std::size_t s = 0; s < points.size(); ++s) {
                EXPECT_EQ(points[s].dmMissPct, reference[s].dmMissPct)
                    << replayEngineName(engine) << ", " << threads
                    << " workers, point " << s;
                EXPECT_EQ(points[s].deMissPct, reference[s].deMissPct)
                    << replayEngineName(engine) << ", " << threads
                    << " workers, point " << s;
                EXPECT_EQ(points[s].optMissPct, reference[s].optMissPct)
                    << replayEngineName(engine) << ", " << threads
                    << " workers, point " << s;
            }
        }
    }
}

TEST(KernelReplay, SuiteSweepsIdenticalCheckedAndUncheckedAllWorkers)
{
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024,
                                              32 * 1024};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference = sweepSuiteAverage(
        names, 30000, sizes, 4, {}, false, false,
        ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        const auto kernel =
            sweepSuiteAverage(names, 30000, sizes, 4, {}, false, false,
                              ReplayEngine::Kernel);
        const auto checked = sweepSuiteAverageChecked(
            names, 30000, sizes, 4, {}, false, false,
            ReplayEngine::Kernel);
        ASSERT_TRUE(checked.failures.empty());
        ASSERT_EQ(kernel.size(), reference.size());
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            EXPECT_EQ(kernel[s].dmMissPct, reference[s].dmMissPct)
                << threads << " workers, size " << sizes[s];
            EXPECT_EQ(kernel[s].deMissPct, reference[s].deMissPct)
                << threads << " workers, size " << sizes[s];
            EXPECT_EQ(kernel[s].optMissPct, reference[s].optMissPct)
                << threads << " workers, size " << sizes[s];
            EXPECT_EQ(checked.points[s].dmMissPct,
                      reference[s].dmMissPct)
                << "checked, " << threads << " workers";
            EXPECT_EQ(checked.points[s].deMissPct,
                      reference[s].deMissPct)
                << "checked, " << threads << " workers";
            EXPECT_EQ(checked.points[s].optMissPct,
                      reference[s].optMissPct)
                << "checked, " << threads << " workers";
        }
    }
}

TEST(KernelReplay, LineSweepKernelMatchesPerLeg)
{
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"tomcatv"};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64}, {},
                            ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        const auto kernel =
            sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64},
                                {}, ReplayEngine::Kernel);
        ASSERT_EQ(kernel.size(), reference.size());
        for (std::size_t l = 0; l < kernel.size(); ++l) {
            EXPECT_EQ(kernel[l].lineBytes, reference[l].lineBytes);
            EXPECT_EQ(kernel[l].dmMissPct, reference[l].dmMissPct)
                << threads << " workers, line " << l;
            EXPECT_EQ(kernel[l].deMissPct, reference[l].deMissPct)
                << threads << " workers, line " << l;
            EXPECT_EQ(kernel[l].optMissPct, reference[l].optMissPct)
                << threads << " workers, line " << l;
        }
    }
}

TEST(KernelReplay, CheckedKernelIsolatesInjectedFaults)
{
    const Trace trace = kernelTrace(10000);
    const std::uint32_t line = 4;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};

    setSweepFaultHook([](const std::string &, std::uint64_t size) {
        if (size == 1024)
            throw StatusError(Status::internal("injected"));
    });
    const auto checked =
        replayTriadKernelChecked(trace, index, sizes, line);
    setSweepFaultHook({});

    ASSERT_EQ(checked.failures.size(), 1u);
    EXPECT_EQ(checked.failures[0].sizeIndex, 1u);
    EXPECT_FALSE(checked.ok[1]);
    const auto clean = replayTriadKernel(trace, index, sizes, line);
    expectTriadEq(checked.triads[0], clean[0], "surviving leg 0");
    expectTriadEq(checked.triads[2], clean[2], "surviving leg 2");
}

TEST(KernelReplay, EmptyTraceYieldsZeroedStats)
{
    Trace trace("empty");
    const NextUseIndex index(trace, 4, NextUseMode::RunStart);
    const auto triads = replayTriadKernel(trace, index, {256, 1024}, 4);
    ASSERT_EQ(triads.size(), 2u);
    for (const auto &triad : triads) {
        EXPECT_EQ(triad.dm.accesses, 0u);
        EXPECT_EQ(triad.de.accesses, 0u);
        EXPECT_EQ(triad.opt.accesses, 0u);
    }
}

TEST(KernelReplay, IsaNamesAreStable)
{
    EXPECT_STREQ(kernelIsaName(KernelIsa::Scalar), "scalar");
    EXPECT_STREQ(kernelIsaName(KernelIsa::Avx2), "avx2");
}

TEST(ReplayEngineNames, ParseNameAndWireCodeAgree)
{
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        EXPECT_EQ(parseReplayEngine(replayEngineName(engine)), engine);
        EXPECT_EQ(replayEngineFromWireCode(replayEngineWireCode(engine)),
                  engine);
    }
    EXPECT_STREQ(replayEngineName(ReplayEngine::Kernel), "kernel");
    EXPECT_STREQ(replayEngineName(ReplayEngine::PerLeg), "per-leg");
    // The retired batched engine's name and byte select the kernel.
    EXPECT_EQ(parseReplayEngine("batched"), ReplayEngine::Kernel);
    EXPECT_EQ(parseReplayEngine("Kernel"), ReplayEngine::Kernel);
    EXPECT_EQ(replayEngineFromWireCode(0), ReplayEngine::Kernel);
    EXPECT_FALSE(parseReplayEngine("warp").has_value());
    EXPECT_FALSE(parseReplayEngine("").has_value());
    EXPECT_FALSE(replayEngineFromWireCode(3).has_value());
}

} // namespace
} // namespace dynex
