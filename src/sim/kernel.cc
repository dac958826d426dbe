#include "sim/kernel.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>

#if defined(__x86_64__) && defined(__GNUC__)
#define DYNEX_KERNEL_HAVE_AVX2 1
#include <immintrin.h>
#else
#define DYNEX_KERNEL_HAVE_AVX2 0
#endif

#include "cache/direct_mapped.h"
#include "cache/exclusion_fsm.h"
#include "cache/hit_last.h"
#include "cache/optimal.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace_events.h"
#include "sim/parallel.h"
#include "trace/packed_view.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/zero_pages.h"

// The chunk loops run hot enough that inlining them into the (large)
// pass driver costs real speed: the merged frame spills their loop
// registers. Pinning them out of line gives each loop a clean
// register file for the price of one call per 4096 references.
#if defined(__GNUC__)
#define DYNEX_KERNEL_NOINLINE __attribute__((noinline))
#else
#define DYNEX_KERNEL_NOINLINE
#endif

namespace dynex
{

namespace
{

std::atomic<bool> gForceScalar{false};

bool
envForceScalar()
{
    static const bool forced = [] {
        const char *env = std::getenv("DYNEX_KERNEL_FORCE_SCALAR");
        return env && *env && !(env[0] == '0' && env[1] == '\0');
    }();
    return forced;
}

bool
cpuHasAvx2()
{
#if DYNEX_KERNEL_HAVE_AVX2
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
#else
    return false;
#endif
}

/**
 * The run-boundary lane: same[i] = 1 iff blocks[i] equals the previous
 * block of the trace (with @p prev carried in from the previous chunk,
 * kAddrInvalid at trace start). Both last-line models consume it: a
 * set bit is exactly a within-run reference served by the last-line
 * register.
 */
void
computeSameScalar(const Addr *blocks, std::size_t n, Addr prev,
                  std::uint8_t *same)
{
    for (std::size_t i = 0; i < n; ++i) {
        same[i] = blocks[i] == prev;
        prev = blocks[i];
    }
}

#if DYNEX_KERNEL_HAVE_AVX2
__attribute__((target("avx2"))) void
computeSameAvx2(const Addr *blocks, std::size_t n, Addr prev,
                std::uint8_t *same)
{
    if (n == 0)
        return;
    same[0] = blocks[0] == prev;
    std::size_t i = 1;
    for (; i + 4 <= n; i += 4) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(blocks + i));
        const __m256i pre = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(blocks + i - 1));
        const __m256i eq = _mm256_cmpeq_epi64(cur, pre);
        const int mask =
            _mm256_movemask_pd(_mm256_castsi256_pd(eq));
        same[i] = mask & 1;
        same[i + 1] = (mask >> 1) & 1;
        same[i + 2] = (mask >> 2) & 1;
        same[i + 3] = (mask >> 3) & 1;
    }
    for (; i < n; ++i)
        same[i] = blocks[i] == blocks[i - 1];
}
#endif

void
computeSame(KernelIsa isa, const Addr *blocks, std::size_t n,
            Addr prev, std::uint8_t *same)
{
#if DYNEX_KERNEL_HAVE_AVX2
    if (isa == KernelIsa::Avx2) {
        computeSameAvx2(blocks, n, prev, same);
        return;
    }
#endif
    (void)isa;
    computeSameScalar(blocks, n, prev, same);
}

/** The lowest and highest block number of a trace (both kAddrInvalid
 * when it is empty). */
struct BlockSpan
{
    Addr min = kAddrInvalid;
    Addr max = kAddrInvalid;
};

/**
 * Per-leg hit-last bits. A cold-false leg whose blocks span a compact
 * range gets a flat bitmap over [min & ~63, max] (one load + shift per
 * probe, no pointer chase) on zero pages, so resident memory follows
 * the blocks the leg actually touches. A cold-true leg, or one whose
 * span blows the cap, uses the exact IdealHitLastStore instead, whose
 * values are identical by construction.
 */
class HitLastLane
{
  public:
    /** Spans of this many blocks or more never use the flat bitmap
     * (8MB). */
    static constexpr Addr kFlatCapBlocks = Addr{1} << 26;

    void
    init(BlockSpan span, bool initial_value)
    {
        const Addr base = span.min & ~Addr{63};
        if (!initial_value && span.max != kAddrInvalid &&
            span.max - base < kFlatCapBlocks) {
            words = ZeroPageArray<std::uint64_t>(
                ((span.max - base) >> 6) + 1);
            flatBase = base;
        } else {
            store = std::make_unique<IdealHitLastStore>(initial_value);
        }
    }

    bool isFlat() const { return words.size() != 0; }
    std::uint64_t *flatWords() { return words.begin(); }
    /** The block of bit 0 of flatWords(), a multiple of 64. */
    Addr base() const { return flatBase; }
    IdealHitLastStore *fallback() { return store.get(); }

  private:
    ZeroPageArray<std::uint64_t> words;
    Addr flatBase = 0;
    std::unique_ptr<IdealHitLastStore> store;
};

/** Flat-bitmap hit-last access policy for the DE chunk loop. The base
 * is a multiple of 64, so a block keeps its bit position in its word. */
struct FlatHitLast
{
    std::uint64_t *__restrict words;
    Addr base;

    bool
    get(Addr block) const
    {
        return (words[(block - base) >> 6] >> (block & 63)) & 1;
    }

    /** h[block] := @p keep ? unchanged : @p value, with no branch:
     * `keep` follows the bypass decision, which flips irregularly, so
     * a branch here would mispredict its way through bypass-heavy
     * legs. */
    void
    update(Addr block, bool keep, bool value)
    {
        std::uint64_t &word = words[(block - base) >> 6];
        const unsigned pos = static_cast<unsigned>(block & 63);
        const std::uint64_t bit = std::uint64_t{1} << pos;
        const std::uint64_t keep_mask =
            0 - static_cast<std::uint64_t>(keep);
        const std::uint64_t new_bit =
            (keep_mask & word) |
            (~keep_mask & (static_cast<std::uint64_t>(value) << pos));
        word = (word & ~bit) | (new_bit & bit);
    }
};

/** IdealHitLastStore-backed policy (sparse traces). */
struct StoreHitLast
{
    IdealHitLastStore *store;

    bool get(Addr block) const { return store->lookup(block); }

    void
    update(Addr block, bool keep, bool value)
    {
        if (!keep)
            store->update(block, value);
    }
};

/** All SoA lanes and event tallies of one (cache size) leg. */
struct KernelLeg
{
    std::uint64_t sizeBytes = 0;
    Addr setMask = 0;

    // Conventional direct-mapped: sentinel tags double as validity.
    std::vector<Addr> dmTags;
    std::uint64_t dmHits = 0, dmCold = 0;

    // Dynamic exclusion: tag + sticky lanes, hit-last bitmap, and one
    // tally per Figure-1 arc (ColdFill, Hit, ReplaceUnsticky,
    // ReplaceHitLast, Bypass — the FsmEvent order).
    std::vector<Addr> deTags;
    std::vector<std::uint8_t> deSticky;
    HitLastLane deHitLast;
    std::uint64_t deCnt[5] = {};
    std::uint64_t deLlHits = 0;

    // Optimal with bypass: interleaved tag + resident-next-use lanes.
    std::vector<OptLane> optLanes;
    std::uint64_t optHits = 0, optCold = 0, optEvict = 0,
                  optBypass = 0, optLlHits = 0;

    KernelLeg(std::uint64_t size_bytes, std::uint32_t line_bytes,
              BlockSpan span, const DynamicExclusionConfig &config)
        : sizeBytes(size_bytes)
    {
        // Same construction-time validation as the model-based legs,
        // so a bad geometry fails a checked leg identically.
        const CacheGeometry geometry =
            CacheGeometry::directMapped(size_bytes, line_bytes);
        geometry.validate();
        const std::uint64_t sets = geometry.numSets();
        setMask = sets - 1;
        dmTags.assign(sets, kAddrInvalid);
        deTags.assign(sets, kAddrInvalid);
        deSticky.assign(sets, 0);
        deHitLast.init(span, config.initialHitLast);
        optLanes.assign(sets, OptLane{});
    }
};

/** Bits of the chunk loop's Models parameter. */
constexpr unsigned kModelDm = 1, kModelDe = 2, kModelOpt = 4;
constexpr unsigned kAllModels = kModelDm | kModelDe | kModelOpt;

/**
 * One chunk of the leg's @p Models, each through its policy's shared
 * per-line step on the SoA lanes. The metrics-off pass runs all three
 * in one loop, sharing the block/set computation and letting the three
 * independent lane probes overlap in the memory pipeline; the
 * metrics-on pass runs one model per loop so each can be timed.
 * Tallies are exact integers, so both are bit-identical.
 *
 * Every step updates its lane by mask arithmetic; only the within-run
 * skips and the hit-last write of the ideal-store lane remain
 * branches.
 */
template <unsigned Models, bool LastLine, typename HitLast>
DYNEX_KERNEL_NOINLINE void
chunk(KernelLeg &leg, HitLast hit_last, const Addr *__restrict blocks,
      const Tick *__restrict next_use,
      const std::uint8_t *__restrict same, std::size_t n,
      std::uint8_t sticky_max)
{
    // __restrict throughout: the lane stores can never alias the
    // packed input arrays, and telling the compiler so stops it
    // reloading blocks[i]/next_use[i]/same[i] after every store — these
    // loops retire at full issue width, so every spared instruction is
    // wall-clock.
    Addr *const __restrict dm_tags = leg.dmTags.data();
    Addr *const __restrict de_tags = leg.deTags.data();
    std::uint8_t *const __restrict de_sticky = leg.deSticky.data();
    OptLane *const __restrict opt = leg.optLanes.data();
    const Addr mask = leg.setMask;
    std::uint64_t dm_hits = 0, dm_cold = 0;
    std::uint64_t de_cold = 0, de_hit = 0, de_unsticky = 0,
                  de_override = 0, de_bypassed = 0, de_ll = 0;
    std::uint64_t opt_hits = 0, opt_cold = 0, opt_writes = 0,
                  opt_ll = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr blk = blocks[i];
        const std::size_t set = static_cast<std::size_t>(blk & mask);
        // A within-run reference: the last-line register serves it and
        // the model does not observe it (always so for optimal, whose
        // RunStart oracle assumes it; for DE when LastLine).
        const bool rerun = same[i] != 0;

        if constexpr ((Models & kModelDm) != 0) {
            const Addr resident = directMappedStep(dm_tags[set], blk);
            dm_hits += resident == blk;
            dm_cold += resident == kAddrInvalid;
        }

        if constexpr ((Models & kModelDe) != 0) {
            if (!LastLine || !rerun) {
                const FsmEvent event =
                    exclusionStep(de_tags[set], de_sticky[set], blk,
                                  hit_last.get(blk), sticky_max);
                de_cold += event == FsmEvent::ColdFill;
                de_hit += event == FsmEvent::Hit;
                de_unsticky += event == FsmEvent::ReplaceUnsticky;
                de_override += event == FsmEvent::ReplaceHitLast;
                de_bypassed += event == FsmEvent::Bypass;
                hit_last.update(blk, !fsmWritesHitLast(event),
                                fsmNewHitLast(event));
            } else {
                ++de_ll;
            }
        }

        if constexpr ((Models & kModelOpt) != 0) {
            if (!rerun) {
                const OptEvent event =
                    optimalStep(opt[set], blk, next_use[i]);
                opt_hits += event == OptEvent::Hit;
                opt_cold += event == OptEvent::ColdFill;
                opt_writes += event != OptEvent::Bypass;
            } else {
                ++opt_ll;
            }
        }
    }
    if constexpr ((Models & kModelDm) != 0) {
        leg.dmHits += dm_hits;
        leg.dmCold += dm_cold;
    }
    if constexpr ((Models & kModelDe) != 0) {
        leg.deCnt[0] += de_cold;
        leg.deCnt[1] += de_hit;
        leg.deCnt[2] += de_unsticky;
        leg.deCnt[3] += de_override;
        leg.deCnt[4] += de_bypassed;
        leg.deLlHits += de_ll;
    }
    if constexpr ((Models & kModelOpt) != 0) {
        // Every opt-visible reference resolves to exactly one of hit /
        // cold / evict / bypass: evictions are the writes that were
        // neither hits nor cold fills, bypasses are the non-writes.
        leg.optHits += opt_hits;
        leg.optCold += opt_cold;
        leg.optEvict += opt_writes - opt_hits - opt_cold;
        leg.optBypass += (n - opt_ll) - opt_writes;
        leg.optLlHits += opt_ll;
    }
}

/** Run chunk<Models> on @p leg, picking its last-line and hit-last
 * specialization (both DE's alone). */
template <unsigned Models>
void
replayChunk(KernelLeg &leg, const Addr *blocks, const Tick *next_use,
            const std::uint8_t *same, std::size_t n, bool last_line,
            std::uint8_t sticky_max)
{
    if constexpr ((Models & kModelDe) == 0) {
        chunk<Models, false>(leg, FlatHitLast{nullptr, 0}, blocks,
                             next_use, same, n, sticky_max);
    } else {
        const auto run = [&]<bool LastLine>(auto hit_last) {
            chunk<Models, LastLine>(leg, hit_last, blocks, next_use,
                                    same, n, sticky_max);
        };
        const auto pick = [&](auto hit_last) {
            if (last_line)
                run.template operator()<true>(hit_last);
            else
                run.template operator()<false>(hit_last);
        };
        if (leg.deHitLast.isFlat())
            pick(FlatHitLast{leg.deHitLast.flatWords(),
                             leg.deHitLast.base()});
        else
            pick(StoreHitLast{leg.deHitLast.fallback()});
    }
}

/** Derive the leg's TriadResult from the pass tallies; every counter
 * is the closed-form sum the models would have accumulated. */
TriadResult
legResult(const KernelLeg &leg, std::uint64_t refs)
{
    TriadResult r;

    r.dm.accesses = refs;
    r.dm.hits = leg.dmHits;
    r.dm.misses = refs - leg.dmHits;
    r.dm.coldMisses = leg.dmCold;
    r.dm.fills = r.dm.misses; // allocate-on-miss
    r.dm.evictions = r.dm.misses - leg.dmCold;

    const std::uint64_t de_hits = leg.deLlHits + leg.deCnt[1];
    r.de.accesses = refs;
    r.de.hits = de_hits;
    r.de.misses = refs - de_hits;
    r.de.coldMisses = leg.deCnt[0];
    r.de.fills = leg.deCnt[0] + leg.deCnt[2] + leg.deCnt[3];
    r.de.bypasses = leg.deCnt[4];
    r.de.evictions = leg.deCnt[2] + leg.deCnt[3];

    const std::uint64_t opt_hits = leg.optLlHits + leg.optHits;
    r.opt.accesses = refs;
    r.opt.hits = opt_hits;
    r.opt.misses = refs - opt_hits;
    r.opt.coldMisses = leg.optCold;
    r.opt.fills = leg.optCold + leg.optEvict;
    r.opt.bypasses = leg.optBypass;
    r.opt.evictions = leg.optEvict;

    for (std::size_t e = 0; e < 5; ++e)
        r.deEvents.byEvent[e] = leg.deCnt[e];
    return r;
}

/** Wall time of one leg's replay, zero when it is not timed:
 * replayNs in all, and the kernel's per-model split of it. */
struct LegTiming
{
    std::uint64_t dmNs = 0;
    std::uint64_t deNs = 0;
    std::uint64_t optNs = 0;
    std::uint64_t replayNs = 0;
};

/** The lowest and highest block number of the view, used to place and
 * size the flat hit-last bitmaps. */
BlockSpan
blockSpanOf(const PackedTraceView &view)
{
    const Addr *blocks = view.blocks();
    const std::size_t n = view.size();
    if (n == 0)
        return {};
    BlockSpan span{blocks[0], blocks[0]};
    for (std::size_t i = 1; i < n; ++i) {
        span.min = blocks[i] < span.min ? blocks[i] : span.min;
        span.max = blocks[i] > span.max ? blocks[i] : span.max;
    }
    return span;
}

/**
 * Stream @p view once, in chunks, through @p leg.
 *
 * Observability: when @p timed (a metrics collector is installed)
 * each model's chunk slice is timed (per chunk x model, never per
 * reference); under a tracer the pass and each chunk get spans named
 * with the leg's size. With neither installed the cost is one null
 * check per chunk.
 */
LegTiming
runKernelPass(const PackedTraceView &view, const NextUseIndex &index,
              const std::string &label, KernelLeg &leg,
              const DynamicExclusionConfig &config, bool timed)
{
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::string size_tag =
        tracer ? " @ " + std::to_string(leg.sizeBytes) : std::string();

    const KernelIsa isa = kernelDispatchIsa();
    const bool last_line = config.useLastLine;
    const std::uint8_t sticky_max = config.stickyMax;
    std::vector<std::uint8_t> same(detail::kKernelChunkRefs);

    LegTiming timing;
    const std::uint64_t pass_start = tracer ? tracer->nowNs() : 0;
    const Addr *blocks = view.blocks();
    const Tick *next_use = index.values().data();
    const std::size_t n = view.size();
    Addr prev_block = kAddrInvalid;
    for (std::size_t base = 0; base < n;
         base += detail::kKernelChunkRefs) {
        const std::size_t end =
            std::min(n, base + detail::kKernelChunkRefs);
        const std::size_t len = end - base;
        computeSame(isa, blocks + base, len, prev_block, same.data());
        prev_block = blocks[end - 1];

        const std::uint64_t chunk_start = tracer ? tracer->nowNs() : 0;
        const Addr *const chunk_blocks = blocks + base;
        const Tick *const chunk_next = next_use + base;
        if (!timed) {
            // No per-model timing wanted: one loop for all three.
            replayChunk<kAllModels>(leg, chunk_blocks, chunk_next,
                                    same.data(), len, last_line,
                                    sticky_max);
        } else {
            const std::uint64_t t0 = obs::monotonicNs();
            replayChunk<kModelDm>(leg, chunk_blocks, chunk_next,
                                  same.data(), len, last_line,
                                  sticky_max);
            const std::uint64_t t1 = obs::monotonicNs();
            replayChunk<kModelDe>(leg, chunk_blocks, chunk_next,
                                  same.data(), len, last_line,
                                  sticky_max);
            const std::uint64_t t2 = obs::monotonicNs();
            replayChunk<kModelOpt>(leg, chunk_blocks, chunk_next,
                                   same.data(), len, last_line,
                                   sticky_max);
            timing.dmNs += t1 - t0;
            timing.deNs += t2 - t1;
            timing.optNs += obs::monotonicNs() - t2;
        }
        if (tracer)
            tracer->complete("chunk@" + std::to_string(base) + size_tag,
                             "kernel", chunk_start,
                             tracer->nowNs() - chunk_start);
    }
    if (tracer)
        tracer->complete("kernel-replay " + label + size_tag, "replay",
                         pass_start, tracer->nowNs() - pass_start);
    timing.replayNs = timing.dmNs + timing.deNs + timing.optNs;
    return timing;
}

/** The per-leg body: runTriad through the object models under a
 * "leg" span, timed whole when @p timed. */
TriadResult
perLegTriad(const Trace &trace, const NextUseIndex &index,
            const std::string &label, std::uint64_t size_bytes,
            std::uint32_t line_bytes, const DynamicExclusionConfig &config,
            bool timed, LegTiming &timing)
{
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = timed ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;
    const TriadResult triad =
        runTriad(trace, index, size_bytes, line_bytes, config);
    if (timed)
        timing.replayNs = obs::monotonicNs() - metrics_t0;
    if (tracer)
        tracer->complete("leg " + label + " @ " +
                             std::to_string(size_bytes),
                         "leg", tracer_t0, tracer->nowNs() - tracer_t0);
    return triad;
}

} // namespace

const char *
replayEngineName(ReplayEngine engine)
{
    return engine == ReplayEngine::PerLeg ? "per-leg" : "kernel";
}

std::optional<ReplayEngine>
parseReplayEngine(const std::string &name)
{
    if (iequals(name, "kernel") || iequals(name, "batched"))
        return ReplayEngine::Kernel;
    if (iequals(name, "per-leg"))
        return ReplayEngine::PerLeg;
    return std::nullopt;
}

std::uint8_t
replayEngineWireCode(ReplayEngine engine)
{
    return engine == ReplayEngine::PerLeg ? 1 : 2;
}

std::optional<ReplayEngine>
replayEngineFromWireCode(std::uint8_t code)
{
    switch (code) {
      case 0:
      case 2:
        return ReplayEngine::Kernel;
      case 1:
        return ReplayEngine::PerLeg;
      default:
        return std::nullopt;
    }
}

const char *
kernelIsaName(KernelIsa isa)
{
    return isa == KernelIsa::Avx2 ? "avx2" : "scalar";
}

KernelIsa
kernelDispatchIsa()
{
    if (gForceScalar.load(std::memory_order_relaxed) ||
        envForceScalar() || !cpuHasAvx2())
        return KernelIsa::Scalar;
    return KernelIsa::Avx2;
}

void
setKernelForceScalar(bool force)
{
    gForceScalar.store(force, std::memory_order_relaxed);
}

bool
kernelForceScalar()
{
    return gForceScalar.load(std::memory_order_relaxed);
}

std::string
FailedLeg::toString() const
{
    std::ostringstream oss;
    oss << bench << " @ "
        << (sizeBytes ? formatSize(sizeBytes) : std::string("all"))
        << " [" << model << "]: " << status.toString();
    return oss.str();
}

TriadLegs
replayTriads(const Trace &trace, const NextUseIndex &index,
             const std::vector<std::uint64_t> &sizes,
             std::uint32_t line_bytes, const DynamicExclusionConfig &config,
             const std::string &bench, ReplayEngine engine)
{
    DYNEX_ASSERT(index.blockSize() == line_bytes &&
                     index.mode() == NextUseMode::RunStart,
                 "replayTriads needs a RunStart index at line "
                 "granularity");
    DYNEX_ASSERT(config.stickyMax >= 1, "sticky_max must be at least 1");
    const std::string &label = bench.empty() ? trace.name() : bench;
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::ProgressBar *const progress = obs::ProgressBar::active();

    // The kernel's shared inputs, built once for all its legs.
    std::optional<PackedTraceView> view;
    BlockSpan span;
    if (engine == ReplayEngine::Kernel) {
        view.emplace(trace, line_bytes);
        DYNEX_ASSERT(view->size() <= index.size(),
                     "next-use index shorter than the trace");
        span = blockSpanOf(*view);
        if (metrics)
            // One count per trace chunk, however many legs replay it.
            metrics->add(obs::Counter::ReplayChunks,
                         (view->size() + detail::kKernelChunkRefs - 1) /
                             detail::kKernelChunkRefs);
    }

    // Every leg is its own pool task. A leg owns its lanes (or models)
    // and tallies and reads only the shared trace, view and index, so
    // each triad is bit-identical at any worker count, and a failed
    // leg cannot perturb its siblings. A kernel leg's lanes are freed
    // when its task ends, so at most one leg per worker is resident.
    TriadLegs legs;
    legs.triads.resize(sizes.size());
    legs.ok.assign(sizes.size(), 0);
    std::vector<LegTiming> timing(sizes.size());
    std::vector<Status> status(sizes.size());
    simParallelFor(sizes.size(), [&](std::size_t s) {
        try {
            if (const auto &hook = sweepFaultHook())
                hook(label, sizes[s]);
            if (engine == ReplayEngine::Kernel) {
                KernelLeg leg(sizes[s], line_bytes, span, config);
                timing[s] = runKernelPass(*view, index, label, leg, config,
                                          metrics != nullptr);
                legs.triads[s] = legResult(leg, view->size());
            } else {
                legs.triads[s] =
                    perLegTriad(trace, index, label, sizes[s], line_bytes,
                                config, metrics != nullptr, timing[s]);
            }
            legs.ok[s] = 1;
        } catch (...) {
            status[s] = statusFromException(std::current_exception());
            return;
        }
        if (progress)
            progress->add(trace.size());
    });

    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (!legs.ok[s]) {
            legs.failures.push_back({.bench = label,
                                     .sizeBytes = sizes[s],
                                     .status = std::move(status[s])});
            continue;
        }
        obs::LegMetrics *const slot =
            metrics ? metrics->leg(label, sizes[s]) : nullptr;
        if (!slot)
            continue;
        const TriadResult &triad = legs.triads[s];
        slot->refs = trace.size();
        slot->dm = triad.dm;
        slot->de = triad.de;
        slot->opt = triad.opt;
        slot->deEvents = triad.deEvents;
        slot->dmReplayNs = timing[s].dmNs;
        slot->deReplayNs = timing[s].deNs;
        slot->optReplayNs = timing[s].optNs;
        slot->replayNs = timing[s].replayNs;
        slot->done = true;
    }
    return legs;
}

} // namespace dynex
