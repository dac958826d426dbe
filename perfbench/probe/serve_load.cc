/**
 * @file
 * serve_mixed's load generator: a closed loop of client threads, one
 * DXP1 connection each, against a running dynex_serve.
 *
 * Each client's request sequence comes from the workload seed: mostly
 * paper-axis sweeps over traces of Zipf popularity, some single-model
 * replays, and a few ls/stats calls. The loop runs in passes: every
 * client sends its next --per-pass requests, each only after the
 * previous reply (the dynex clients block on each reply), and the pass
 * ends when the last client finishes. Every reply is checked against
 * the per-leg reference engine's result, computed before the first
 * pass. In traced mode every other pass records client spans and
 * reads the server's stage times from STATS deltas.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "cache/factory.h"
#include "cache/optimal.h"
#include "common.h"
#include "server/client.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "spans.h"
#include "trace/mmap_io.h"
#include "trace/next_use.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench
{
namespace
{

using dynex::CacheStats;
using dynex::SizeSweepPoint;
namespace srv = dynex::server;

/** Requests in each client's seeded sequence; passes cycle through it. */
constexpr std::size_t kSequenceLength = 20000;
/** Untraced sweep latencies an untraced run collects at least, so at
 * least 10 of them fall beyond the nearest-rank p99. */
constexpr std::size_t kMinSweeps = 1000;

struct Request
{
    enum Kind
    {
        Sweep,
        Replay,
        List,
        Stats
    } kind = Sweep;
    std::size_t trace = 0;
    std::uint32_t line = 4;
    std::string model;
    std::uint64_t sizeBytes = 0;
};

const char *
kindName(Request::Kind kind)
{
    switch (kind) {
      case Request::Sweep:
        return "sweep";
      case Request::Replay:
        return "replay";
      case Request::List:
        return "ls";
      case Request::Stats:
        return "stats";
    }
    return "?";
}

std::vector<Request>
clientSequence(std::uint64_t seed, unsigned client, std::size_t traces,
               std::size_t length)
{
    dynex::Rng rng = dynex::Rng(inputSeed(seed, 2000)).fork(client + 1);
    // Zipf(1) popularity over the traces, most popular first.
    std::vector<double> cumulative;
    double total = 0.0;
    for (std::size_t k = 0; k < traces; ++k)
        cumulative.push_back(total += 1.0 / static_cast<double>(k + 1));
    auto pickTrace = [&] {
        const double u = rng.nextDouble() * total;
        const auto it =
            std::upper_bound(cumulative.begin(), cumulative.end(), u);
        return std::min<std::size_t>(
            static_cast<std::size_t>(it - cumulative.begin()), traces - 1);
    };
    static const char *const kModels[] = {"dm", "dynex", "opt"};

    std::vector<Request> sequence(length);
    for (Request &request : sequence) {
        const double u = rng.nextDouble();
        request.trace = pickTrace();
        if (u < 0.85) {
            request.kind = Request::Sweep;
            request.line = rng.nextDouble() < 0.75 ? 4 : 16;
        } else if (u < 0.95) {
            request.kind = Request::Replay;
            request.line = 4;
            request.model = kModels[rng.nextBelow(3)];
            request.sizeBytes = rng.nextBool() ? 4096 : 32768;
        } else {
            request.kind = rng.nextBool() ? Request::List : Request::Stats;
        }
    }
    return sequence;
}

using SweepKey = std::pair<std::size_t, std::uint32_t>;
using ReplayKey = std::tuple<std::size_t, std::string, std::uint64_t>;

struct ExpectedReplay
{
    std::string model;
    CacheStats stats;
};

/** Reference results for every distinct request in the sequences. */
struct Expected
{
    std::vector<std::string> names;
    std::vector<std::uint64_t> refs;
    std::map<SweepKey, std::vector<SizeSweepPoint>> sweeps;
    std::map<ReplayKey, ExpectedReplay> replays;
};

/** The server's per-request configuration, with the per-leg engine. */
Expected
computeExpected(const std::vector<ServedTrace> &served,
                const std::vector<std::vector<Request>> &sequences,
                unsigned workers)
{
    Expected expected;
    std::vector<std::unique_ptr<dynex::Trace>> traces(served.size());
    dynex::ThreadPool pool(workers);
    pool.parallelFor(served.size(), [&](std::size_t t) {
        dynex::Result<dynex::Trace> loaded =
            dynex::readTraceFileFast(served[t].path);
        if (!loaded.ok())
            throw dynex::StatusError(loaded.status());
        traces[t] = std::make_unique<dynex::Trace>(std::move(loaded.value()));
    });
    for (std::size_t t = 0; t < served.size(); ++t) {
        expected.names.push_back(served[t].name);
        expected.refs.push_back(traces[t]->size());
    }

    for (const auto &sequence : sequences)
        for (const Request &r : sequence) {
            if (r.kind == Request::Sweep)
                expected.sweeps[{r.trace, r.line}];
            else if (r.kind == Request::Replay)
                expected.replays[{r.trace, r.model, r.sizeBytes}];
        }
    std::vector<SweepKey> sweepKeys;
    for (const auto &entry : expected.sweeps)
        sweepKeys.push_back(entry.first);
    std::vector<ReplayKey> replayKeys;
    for (const auto &entry : expected.replays)
        replayKeys.push_back(entry.first);

    pool.parallelFor(sweepKeys.size(), [&](std::size_t i) {
        const auto [t, line] = sweepKeys[i];
        const dynex::NextUseIndex index(*traces[t], line,
                                        dynex::NextUseMode::RunStart);
        dynex::DynamicExclusionConfig config;
        config.stickyMax = 1;
        config.useLastLine = line > 4;
        expected.sweeps.at(sweepKeys[i]) = dynex::sweepSizes(
            *traces[t], index, dynex::paperCacheSizes(), line, config,
            dynex::ReplayEngine::PerLeg);
    });
    pool.parallelFor(replayKeys.size(), [&](std::size_t i) {
        const auto &[t, model, size] = replayKeys[i];
        const auto geometry = dynex::CacheGeometry::directMapped(size, 4);
        ExpectedReplay &out = expected.replays.at(replayKeys[i]);
        if (model == "opt") {
            const dynex::NextUseIndex index(*traces[t], 4,
                                            dynex::NextUseMode::RunStart);
            dynex::OptimalDirectMappedCache cache(geometry, index, true);
            out.stats = dynex::runTrace(cache, *traces[t]);
            out.model = cache.name();
        } else {
            dynex::DynamicExclusionConfig config;
            config.stickyMax = 1;
            config.useLastLine = false;
            auto cache = dynex::makeCache(model, geometry, config);
            out.stats = dynex::runTrace(*cache, *traces[t]);
            out.model = cache->name();
        }
    });
    return expected;
}

bool
sameStats(const CacheStats &a, const CacheStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.coldMisses == b.coldMisses &&
           a.fills == b.fills && a.bypasses == b.bypasses &&
           a.evictions == b.evictions;
}

/** Send @p r and check the reply; returns an empty string when it
 * matches the reference, else why not. */
std::string
sendChecked(srv::Client &client, const Request &r, const Expected &expected)
{
    const std::string &name = expected.names[r.trace];
    switch (r.kind) {
      case Request::Sweep: {
        srv::SweepRequest request;
        request.trace = name;
        request.lineBytes = r.line;
        const auto reply = client.sweep(request);
        if (!reply.ok())
            return "sweep " + name + ": " + reply.status().toString();
        const auto &want = expected.sweeps.at({r.trace, r.line});
        const auto &got = reply.value();
        bool same = got.failures.empty() && got.points.size() == want.size() &&
                    got.refs == expected.refs[r.trace];
        for (std::size_t s = 0; same && s < want.size(); ++s)
            same = got.points[s].ok == 1 &&
                   got.points[s].sizeBytes == want[s].sizeBytes &&
                   got.points[s].dmMissPct == want[s].dmMissPct &&
                   got.points[s].deMissPct == want[s].deMissPct &&
                   got.points[s].optMissPct == want[s].optMissPct;
        return same ? "" : "sweep " + name + ": differs from reference";
      }
      case Request::Replay: {
        srv::ReplayRequest request;
        request.trace = name;
        request.model = r.model;
        request.sizeBytes = r.sizeBytes;
        request.lineBytes = r.line;
        const auto reply = client.replay(request);
        if (!reply.ok())
            return "replay " + name + ": " + reply.status().toString();
        const auto &want =
            expected.replays.at({r.trace, r.model, r.sizeBytes});
        const bool same = reply.value().model == want.model &&
                          reply.value().refs == expected.refs[r.trace] &&
                          sameStats(reply.value().stats, want.stats);
        return same ? "" : "replay " + name + ": differs from reference";
      }
      case Request::List: {
        const auto reply = client.list();
        if (!reply.ok())
            return "ls: " + reply.status().toString();
        for (const std::string &served : expected.names) {
            const bool listed = std::any_of(
                reply.value().begin(), reply.value().end(),
                [&](const srv::TraceListEntry &e) { return e.name == served; });
            if (!listed)
                return "ls: " + served + " missing";
        }
        return "";
      }
      case Request::Stats: {
        const auto reply = client.stats();
        if (!reply.ok())
            return "stats: " + reply.status().toString();
        return reply.value().counters.empty() ? "stats: empty" : "";
      }
    }
    return "unknown request";
}

/** utime + stime of @p pid in seconds (from /proc), or -1. */
double
processCpuSeconds(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return -1.0;
    const auto paren = line.rfind(')');
    if (paren == std::string::npos)
        return -1.0;
    std::istringstream fields(line.substr(paren + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::map<std::string, std::uint64_t>
serverCounters(srv::Client &client)
{
    std::map<std::string, std::uint64_t> counters;
    const auto reply = client.stats();
    if (reply.ok())
        for (const auto &[name, value] : reply.value().counters)
            counters[name] = value;
    return counters;
}

struct LatencySummary
{
    std::size_t count = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::size_t beyondP99 = 0;
};

/** Nearest-rank percentiles. */
LatencySummary
summarize(std::vector<double> ms)
{
    LatencySummary summary;
    summary.count = ms.size();
    if (ms.empty())
        return summary;
    std::sort(ms.begin(), ms.end());
    auto rank = [&](double q) {
        return static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(ms.size())));
    };
    summary.p50Ms = ms[std::max<std::size_t>(rank(0.50), 1) - 1];
    const std::size_t r99 = std::max<std::size_t>(rank(0.99), 1);
    summary.p99Ms = ms[r99 - 1];
    summary.beyondP99 = ms.size() - r99;
    return summary;
}

std::string
summaryJson(const LatencySummary &summary, double wall_s,
            std::size_t requests)
{
    JsonObject out;
    out.count("sweeps", summary.count);
    out.num("sweep_p50_ms", summary.p50Ms);
    out.num("sweep_p99_ms", summary.p99Ms);
    out.count("sweeps_beyond_p99", summary.beyondP99);
    out.count("requests", requests);
    out.num("throughput_rps",
            wall_s > 0 ? static_cast<double>(requests) / wall_s : 0.0);
    return out.str();
}

} // namespace

int
cmdServeLoad(const Args &args)
{
    const auto port = static_cast<std::uint16_t>(args.u64("port", 0));
    const long pid = static_cast<long>(args.u64("pid", 0));
    const std::uint64_t seed = args.u64("seed", 1);
    const auto clients = static_cast<unsigned>(args.u64("clients", 1));
    const std::size_t perPass = args.u64("per-pass", 50);
    const double seconds = static_cast<double>(args.u64("seconds", 10));
    const bool traced = args.u64("trace", 0) != 0;
    const std::vector<ServedTrace> served = servedTraces(args.str("dir"));

    std::vector<std::vector<Request>> sequences;
    for (unsigned c = 0; c < clients; ++c)
        sequences.push_back(
            clientSequence(seed, c, served.size(), kSequenceLength));

    // References, outside the timed region.
    const std::uint64_t refStart = nowNs();
    Expected expected;
    try {
        expected = computeExpected(served, sequences, clients);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe: reference: %s\n", e.what());
        return 3;
    }
    if (args.u64("corrupt-expected", 0) != 0)
        for (auto &entry : expected.sweeps)
            entry.second.front().dmMissPct += 1.0;
    const double referenceS = static_cast<double>(nowNs() - refStart) / 1e9;

    // The daemon serves each connection on one worker until it closes,
    // so between passes the first client's idle connection reads the
    // server's counters.
    std::vector<srv::Client> conns(clients);
    for (unsigned c = 0; c < clients; ++c) {
        conns[c].setClientId("perfbench-" + std::to_string(c));
        srv::RetryPolicy policy;
        policy.retries = 3;
        policy.backoffMs = 20;
        policy.seed = inputSeed(seed, 3000 + c);
        conns[c].setRetryPolicy(policy);
        if (const dynex::Status s = conns[c].connect("127.0.0.1", port);
            !s.ok()) {
            std::fprintf(stderr, "perfbench_probe: connect: %s\n",
                         s.toString().c_str());
            return 3;
        }
    }

    std::mutex resultsMutex;
    std::vector<std::string> failures; // guarded by resultsMutex
    std::uint64_t attempted = 0, failed = 0;
    // Client latency comes from the untraced passes only.
    std::vector<double> sweepMs;
    std::size_t untracedRequests = 0;
    double untracedWall = 0.0;
    std::vector<std::string> passes;

    const std::uint64_t loopStart = nowNs();
    const std::size_t minPasses = traced ? 4 : 2;
    for (std::size_t pass = 0;; ++pass) {
        const double elapsed =
            static_cast<double>(nowNs() - loopStart) / 1e9;
        if (pass >= minPasses && elapsed >= seconds &&
            (traced || sweepMs.size() >= kMinSweeps))
            break;
        const bool tracedPass = traced && pass % 2 == 1;
        SpanLog log;
        std::map<std::string, std::uint64_t> before;
        std::uint64_t retriesBefore = 0, sleptMsBefore = 0;
        if (tracedPass) {
            before = serverCounters(conns[0]);
            for (const auto &conn : conns) {
                retriesBefore += conn.retryStats().retries;
                sleptMsBefore += conn.retryStats().sleptMs;
            }
        }
        const double cpuBefore = processCpuSeconds(pid);
        const std::uint64_t passStart = nowNs();
        const std::int64_t root = tracedPass ? log.begin("pass", -1) : -1;

        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                std::vector<double> mine;
                std::vector<std::string> errors;
                for (std::size_t i = 0; i < perPass; ++i) {
                    const auto &sequence = sequences[c];
                    const Request &r =
                        sequence[(pass * perPass + i) % sequence.size()];
                    const std::uint64_t t0 = nowNs();
                    std::string error;
                    {
                        const ScopedSpan call(
                            tracedPass ? &log : nullptr,
                            std::string("client.") + kindName(r.kind), root);
                        error = sendChecked(conns[c], r, expected);
                    }
                    const double ms = static_cast<double>(nowNs() - t0) / 1e6;
                    if (r.kind == Request::Sweep)
                        mine.push_back(ms);
                    if (!error.empty())
                        errors.push_back(error);
                }
                const std::lock_guard<std::mutex> lock(resultsMutex);
                if (!tracedPass)
                    sweepMs.insert(sweepMs.end(), mine.begin(), mine.end());
                attempted += perPass;
                failed += errors.size();
                for (auto &error : errors)
                    if (failures.size() < 8)
                        failures.push_back(std::move(error));
            });
        for (auto &thread : threads)
            thread.join();
        if (tracedPass)
            log.end(root);
        const double wall = static_cast<double>(nowNs() - passStart) / 1e9;
        const double cpu = processCpuSeconds(pid) - cpuBefore;
        if (!tracedPass) {
            untracedRequests += perPass * clients;
            untracedWall += wall;
        }

        JsonObject record;
        record.flag("traced", tracedPass);
        record.num("wall_s", wall);
        record.num("daemon_cpu_s", cpu);
        if (tracedPass) {
            const auto after = serverCounters(conns[0]);
            auto delta = [&](const std::string &name) {
                const auto a = after.find(name);
                const auto b = before.find(name);
                const std::uint64_t hi = a == after.end() ? 0 : a->second;
                const std::uint64_t lo = b == before.end() ? 0 : b->second;
                return static_cast<double>(hi >= lo ? hi - lo : 0);
            };
            auto stageS = [&](const char *series) {
                return delta(std::string("lat-") + series + "-sum-us") / 1e6;
            };
            std::uint64_t retriesAfter = 0, sleptMsAfter = 0;
            for (const auto &conn : conns) {
                retriesAfter += conn.retryStats().retries;
                sleptMsAfter += conn.retryStats().sleptMs;
            }
            // Back-off sleeps after BUSY sheds, summed over clients.
            const double backoffS =
                static_cast<double>(sleptMsAfter - sleptMsBefore) / 1e3;
            const double stages = stageS("queue-wait") + stageS("admission") +
                                  stageS("store-load") + stageS("replay") +
                                  stageS("serialize");
            double clientS = 0.0;
            for (const auto &[name, total] : log.totalSeconds())
                if (name != "pass")
                    clientS += total;
            const double lookups =
                delta("store-trace-hits") + delta("store-trace-misses");
            const double decided = delta("admitted") + delta("shed");
            JsonObject layers;
            layers.num("server.queue_wait_s", stageS("queue-wait"));
            layers.num("server.admission_s", stageS("admission"));
            layers.num("server.store_load_s", stageS("store-load"));
            layers.num("server.replay_s", stageS("replay"));
            layers.num("server.serialize_s", stageS("serialize"));
            layers.num("server.shed_share",
                       decided > 0 ? delta("shed") / decided : 0.0);
            layers.num("server.store.hit_ratio",
                       lookups > 0 ? delta("store-trace-hits") / lookups : 0.0);
            layers.num("server.bytes_out_per_request",
                       delta("requests") > 0
                           ? delta("bytes-out") / delta("requests")
                           : 0.0);
            layers.num("server.client.retries",
                       static_cast<double>(retriesAfter - retriesBefore));
            layers.num("server.client.backoff_s", backoffS);
            layers.num("trace.next_use.builds", delta("store-index-builds"));
            layers.num("client_s", clientS);
            layers.num("residual_s", clientS - stages - backoffS);
            record.raw("layers", layers.str());
            const std::string spansOut = args.str("spans-out");
            if (!spansOut.empty() && !log.writeJson(spansOut))
                return 3;
        }
        passes.push_back(record.str());
    }

    JsonObject out;
    out.raw("passes", jsonArray(passes));
    out.raw("latency", summaryJson(summarize(sweepMs), untracedWall,
                                   untracedRequests));
    out.count("attempted", attempted);
    out.count("failed", failed);
    std::vector<std::string> quoted;
    for (const auto &failure : failures)
        quoted.push_back("\"" + jsonEscape(failure) + "\"");
    out.raw("failures", jsonArray(quoted));
    out.num("reference_s", referenceS);
    out.count("clients", clients);
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // namespace perfbench
