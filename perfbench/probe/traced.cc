/**
 * @file
 * In-process passes of the batch workloads. Each replays the layer
 * calls the workload's shipped binaries make and prints one pass's
 * wall time, layer times and simulated results (which perfbench/run.py
 * checks). With `--spans 1` every call is wrapped in a span and replay
 * legs report their per-model split; with `--spans 0` the same pass
 * runs with no span log and no metrics collector, so the two walls
 * give the tracing overhead.
 *
 * Only engine-agnostic entry points are called: sweeps use the
 * program's default replay engine and a caller-built next-use index.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "common.h"
#include "obs/metrics.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "spans.h"
#include "trace/mmap_io.h"
#include "trace/next_use.h"
#include "tracegen/spec.h"
#include "util/thread_pool.h"
#include "workload/campaign.h"
#include "workload/executor.h"
#include "workload/import.h"
#include "workload/report.h"

namespace perfbench
{
namespace
{

using dynex::NextUseIndex;
using dynex::NextUseMode;
using dynex::Trace;

/** The paper's canonical L1 (32KB) and word line (4B). */
constexpr std::uint64_t kL1Bytes = 32 * 1024;
constexpr std::uint32_t kWordLine = 4;

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &info : dynex::specSuite())
        names.push_back(info.name);
    return names;
}

std::string
fmt(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Per-model replay time and work, summed over collected legs. */
struct ReplaySplit
{
    double dmS = 0.0;
    double deS = 0.0;
    double optS = 0.0;
    double modelSteps = 0.0; ///< references x legs x 3 models
    std::size_t missingLegs = 0; ///< registered but never filled

    void
    add(const dynex::obs::MetricsCollector &collector)
    {
        for (std::size_t i = 0; i < collector.legCount(); ++i) {
            const auto &leg = collector.legAt(i);
            missingLegs += leg.done ? 0 : 1;
            dmS += static_cast<double>(leg.dmReplayNs) / 1e9;
            deS += static_cast<double>(leg.deReplayNs) / 1e9;
            optS += static_cast<double>(leg.optReplayNs) / 1e9;
            modelSteps += 3.0 * static_cast<double>(leg.refs);
        }
    }
};

/** The layer times every traced pass reports. */
JsonObject
layerJson(const SpanLog &log, double wall_s, const ReplaySplit &split)
{
    const auto self = log.selfSeconds();
    const auto counts = log.counts();
    auto get = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto countOf = [&](const char *name) {
        const auto it = counts.find(name);
        return it == counts.end() ? std::uint64_t{0} : it->second;
    };
    JsonObject out;
    out.num("wall_s", wall_s);
    out.raw("self_s", jsonNumbers(self));
    out.count("next_use_builds", countOf("trace.next_use"));
    out.count("hierarchy_legs", countOf("cache.hierarchy"));
    out.num("replay_dm_s", split.dmS);
    out.num("replay_de_s", split.deS);
    out.num("replay_opt_s", split.optS);
    out.num("model_steps", split.modelSteps);
    out.count("missing_legs", split.missingLegs);
    out.num("residual_s", get("pass"));
    return out;
}

/** The span log of a traced pass, or null (record nothing). */
SpanLog *
spansFor(const Args &args, SpanLog &log)
{
    return args.u64("spans", 1) != 0 ? &log : nullptr;
}

bool
writeSpans(const SpanLog &log, const Args &args)
{
    const std::string path = args.str("spans-out");
    if (path.empty() || log.writeJson(path))
        return true;
    std::fprintf(stderr, "perfbench_probe: cannot write %s\n", path.c_str());
    return false;
}

} // namespace

int
cmdTraceSuite(const Args &args)
{
    const dynex::Count refs = args.u64("refs", 500000);
    const auto workers = static_cast<unsigned>(args.u64("workers", 1));
    const auto names = suiteNames();
    const auto &sizes = dynex::paperCacheSizes();
    dynex::ThreadPool pool(workers);

    SpanLog log;
    SpanLog *const spans = spansFor(args, log);
    ReplaySplit split;
    double generatedRefs = 0.0;
    std::vector<std::string> results;
    const std::uint64_t passStart = nowNs();
    {
        const ScopedSpan pass(spans, "pass");
        // bench_fig04 sweeps the instruction streams, then
        // bench_fig14 the data streams; each fans the benchmarks out
        // over the pool.
        for (const bool data : {false, true}) {
            // Legs are keyed by trace name; the stream filters name
            // their output "<bench>.ifetch" / "<bench>.data".
            dynex::obs::MetricsCollector collector;
            for (const auto &name : names)
                for (const std::uint64_t size : sizes)
                    collector.addLeg(name + (data ? ".data" : ".ifetch"),
                                     size);
            std::vector<std::vector<dynex::SizeSweepPoint>> grid(names.size());
            std::vector<double> delivered(names.size(), 0.0);
            {
                const dynex::obs::ScopedMetrics scoped(spans ? &collector
                                                             : nullptr);
                pool.parallelFor(names.size(), [&](std::size_t b) {
                    const ScopedSpan task(spans, "task", pass.id());
                    std::shared_ptr<const Trace> trace;
                    {
                        const ScopedSpan gen(spans, "tracegen", task.id());
                        trace = data
                                    ? dynex::Workloads::data(names[b], refs)
                                    : dynex::Workloads::instructions(names[b],
                                                                     refs);
                    }
                    std::optional<NextUseIndex> index;
                    {
                        const ScopedSpan build(spans, "trace.next_use",
                                               task.id());
                        index.emplace(*trace, kWordLine,
                                      NextUseMode::RunStart);
                    }
                    const ScopedSpan replay(spans, "sim.replay", task.id());
                    grid[b] = dynex::sweepSizes(*trace, *index, sizes,
                                                kWordLine);
                    delivered[b] = static_cast<double>(trace->size());
                });
            }
            if (spans)
                split.add(collector);
            // The figures' serial benchmark-order average.
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                double dm = 0.0, de = 0.0, opt = 0.0;
                for (const auto &row : grid) {
                    dm += row[s].dmMissPct;
                    de += row[s].deMissPct;
                    opt += row[s].optMissPct;
                }
                const auto n = static_cast<double>(names.size());
                std::string row = data ? "\"d" : "\"i";
                row += std::to_string(sizes[s]);
                for (const double value : {dm / n, de / n, opt / n}) {
                    row += ' ';
                    row += fmt(value);
                }
                results.push_back(row + '"');
            }
            for (const double d : delivered)
                generatedRefs += d;
        }
    }
    const double wall = static_cast<double>(nowNs() - passStart) / 1e9;

    JsonObject out = layerJson(log, wall, split);
    out.num("tasks_s", log.totalSeconds()["task"]);
    out.count("workers", workers);
    out.num("generated_refs", generatedRefs);
    out.raw("results", jsonArray(results));
    if (!writeSpans(log, args))
        return 3;
    std::printf("%s\n", out.str().c_str());
    return 0;
}

int
cmdTraceHierarchy(const Args &args)
{
    const dynex::Count refs = args.u64("refs", 100000);
    const auto names = suiteNames();
    const std::vector<std::uint64_t> ratios = {1, 2, 4, 8, 16, 32, 64};
    struct Leg
    {
        bool dynexL1;
        dynex::HitLastPolicy policy;
    };
    const Leg legs[] = {{false, dynex::HitLastPolicy::Ideal},
                        {true, dynex::HitLastPolicy::AssumeHit},
                        {true, dynex::HitLastPolicy::AssumeMiss},
                        {true, dynex::HitLastPolicy::Hashed},
                        {true, dynex::HitLastPolicy::Ideal}};

    SpanLog log;
    SpanLog *const spans = spansFor(args, log);
    double generatedRefs = 0.0;
    std::vector<std::string> figures;
    const std::uint64_t passStart = nowNs();
    {
        const ScopedSpan pass(spans, "pass");
        // Figures 7, 8 and 9 are three processes, and each runs the
        // whole grid: 7 L2 ratios x 10 benchmarks x 5 configs.
        for (int figure = 0; figure < 3; ++figure) {
            dynex::Workloads::dropCache();
            std::string rows;
            for (const std::uint64_t ratio : ratios) {
                double l1[5] = {}, l2[5] = {};
                for (const auto &name : names) {
                    std::shared_ptr<const Trace> trace;
                    {
                        const ScopedSpan gen(spans, "tracegen", pass.id());
                        trace = dynex::Workloads::instructions(name, refs);
                    }
                    generatedRefs += static_cast<double>(trace->size());
                    for (std::size_t k = 0; k < std::size(legs); ++k) {
                        const ScopedSpan leg(spans, "cache.hierarchy",
                                             pass.id());
                        dynex::HierarchyConfig config;
                        config.l1 = dynex::CacheGeometry::directMapped(
                            kL1Bytes, kWordLine);
                        config.l2 = dynex::CacheGeometry::directMapped(
                            kL1Bytes * ratio, kWordLine);
                        config.l1DynamicExclusion = legs[k].dynexL1;
                        config.policy = legs[k].policy;
                        config.hashedEntriesPerLine =
                            static_cast<std::uint32_t>(ratio);
                        dynex::TwoLevelCache hierarchy(config);
                        const auto stats = dynex::runTrace(hierarchy, *trace);
                        l1[k] += 100.0 * stats.l1.missRate();
                        l2[k] += 100.0 * stats.l2GlobalMissRate();
                    }
                }
                const auto n = static_cast<double>(names.size());
                rows += std::to_string(ratio);
                for (std::size_t k = 0; k < std::size(legs); ++k) {
                    rows += ' ';
                    rows += fmt(l1[k] / n);
                    rows += ' ';
                    rows += fmt(l2[k] / n);
                }
                rows += ";";
            }
            figures.push_back("\"" + rows + "\"");
        }
    }
    const double wall = static_cast<double>(nowNs() - passStart) / 1e9;

    JsonObject out = layerJson(log, wall, ReplaySplit{});
    out.num("generated_refs", generatedRefs);
    out.raw("results", jsonArray(figures));
    if (!writeSpans(log, args))
        return 3;
    std::printf("%s\n", out.str().c_str());
    return 0;
}

int
cmdTraceCampaign(const Args &args)
{
    namespace wl = dynex::workload;
    dynex::Result<wl::CampaignSpec> parsed =
        wl::parseCampaignFile(args.str("spec"));
    if (!parsed.ok()) {
        std::fprintf(stderr, "perfbench_probe: %s\n",
                     parsed.status().toString().c_str());
        return 4;
    }
    const wl::CampaignSpec &spec = parsed.value();

    SpanLog log;
    SpanLog *const spans = spansFor(args, log);
    ReplaySplit split;
    wl::CampaignReport report;
    report.name = spec.name;
    report.engine = wl::replayEngineName(spec.engine);
    report.models = spec.models;
    const std::uint64_t passStart = nowNs();
    {
        const ScopedSpan pass(spans, "pass");
        for (const wl::TraceSource &source : spec.traces) {
            std::string layer = "trace.decode.dxt2";
            if (source.kind == wl::SourceKind::Import)
                layer = "workload.import." + source.format;
            else if (source.spec.size() > 5 &&
                     source.spec.substr(source.spec.size() - 5) == ".dxt3")
                layer = "trace.decode.dxt3";
            dynex::Result<Trace> loaded = [&] {
                const ScopedSpan read(spans, layer, pass.id());
                if (source.kind != wl::SourceKind::Import)
                    return dynex::readTraceFileFast(source.spec);
                return source.format == "lackey"
                           ? wl::readLackeyTraceFile(source.spec,
                                                     source.label)
                           : wl::readTextTraceFile(source.spec, source.label);
            }();
            if (!loaded.ok()) {
                std::fprintf(stderr, "perfbench_probe: %s\n",
                             loaded.status().toString().c_str());
                return 3;
            }
            Trace &trace = loaded.value();
            trace.setName(source.label);

            for (const std::uint32_t line : spec.lines) {
                std::optional<NextUseIndex> index;
                {
                    const ScopedSpan build(spans, "trace.next_use",
                                           pass.id());
                    index.emplace(trace, line, NextUseMode::RunStart);
                }
                // The executor's per-line configuration.
                dynex::DynamicExclusionConfig config;
                config.stickyMax = spec.stickyMax;
                config.useLastLine = line > 4;
                dynex::obs::MetricsCollector collector;
                for (const std::uint64_t size : spec.sizes)
                    collector.addLeg(source.label, size);
                std::vector<dynex::SizeSweepPoint> points;
                {
                    const dynex::obs::ScopedMetrics scoped(
                        spans ? &collector : nullptr);
                    const ScopedSpan replay(spans, "sim.replay", pass.id());
                    points = dynex::sweepSizes(trace, *index, spec.sizes,
                                               line, config);
                }
                if (spans)
                    split.add(collector);
                for (const dynex::SizeSweepPoint &point : points) {
                    wl::CampaignLeg leg;
                    leg.trace = source.label;
                    leg.lineBytes = line;
                    leg.sizeBytes = point.sizeBytes;
                    leg.ok = true;
                    leg.dmMissPct = point.dmMissPct;
                    leg.deMissPct = point.deMissPct;
                    leg.optMissPct = point.optMissPct;
                    report.legs.push_back(leg);
                }
            }
        }
        const ScopedSpan write(spans, "workload.report.write", pass.id());
        if (const dynex::Status s = wl::writeCampaignOutputs(report, spec);
            !s.ok()) {
            std::fprintf(stderr, "perfbench_probe: %s\n",
                         s.toString().c_str());
            return 3;
        }
    }
    const double wall = static_cast<double>(nowNs() - passStart) / 1e9;

    JsonObject out = layerJson(log, wall, split);
    if (!writeSpans(log, args))
        return 3;
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // namespace perfbench
