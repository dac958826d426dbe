/**
 * @file
 * DXP1 protocol tests: frame round-trips for every message type
 * (doubles bit-exact), rejection of every framing violation (bad
 * magic, nonzero flags, corrupt header CRC, corrupt payload CRC,
 * truncation, trailing garbage, over-cap payload lengths), wire-body
 * bounds checks, and a short deterministic run of the frame fuzzer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>

#include "cache/victim.h"
#include "server/protocol.h"
#include "sim/sweep.h"
#include "util/crc32.h"

#include "../robustness/frame_fuzzer.h"

namespace dynex::server
{
namespace
{

Frame
mustDecode(const std::string &bytes)
{
    Result<Frame> frame = decodeFrame(bytes);
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame.value()) : Frame{};
}

TEST(Dxp1Frame, EmptyPayloadRoundTrips)
{
    const std::string wire = encodeFrame(MsgType::PingRequest, {});
    EXPECT_EQ(wire.size(), kFrameHeaderBytes + kFrameTrailerBytes);
    const Frame frame = mustDecode(wire);
    EXPECT_EQ(frame.type, MsgType::PingRequest);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Dxp1Frame, PayloadRoundTripsIncludingNulBytes)
{
    std::string payload = "abc";
    payload.push_back('\0');
    payload += "def";
    const Frame frame =
        mustDecode(encodeFrame(MsgType::SweepRequest, payload));
    EXPECT_EQ(frame.type, MsgType::SweepRequest);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Dxp1Frame, RejectsBadMagic)
{
    std::string wire = encodeFrame(MsgType::PingRequest, {});
    wire[0] = 'X';
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsHeaderCorruption)
{
    // Flip one bit in the length field: the header CRC must catch it
    // before the bogus length is trusted.
    std::string wire = encodeFrame(MsgType::ListRequest, "payload");
    wire[8] = static_cast<char>(wire[8] ^ 0x40);
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsPayloadCorruption)
{
    std::string wire = encodeFrame(MsgType::ListRequest, "payload");
    wire[kFrameHeaderBytes + 2] =
        static_cast<char>(wire[kFrameHeaderBytes + 2] ^ 0x01);
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsEveryTruncationLength)
{
    const std::string wire =
        encodeFrame(MsgType::ReplayRequest, "0123456789");
    for (std::size_t keep = 0; keep < wire.size(); ++keep)
    {
        const auto decoded = decodeFrame(wire.substr(0, keep));
        ASSERT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
    }
}

TEST(Dxp1Frame, RejectsTrailingGarbage)
{
    std::string wire = encodeFrame(MsgType::PingRequest, {});
    wire += "extra";
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsOverCapLengthWithValidCrcAsResourceLimit)
{
    // Forge a header whose CRC is *valid* but whose length is over the
    // cap: the decoder must report ResourceLimit without attempting the
    // 4GB read.
    std::string header(kFrameHeaderBytes, '\0');
    std::memcpy(header.data(), kFrameMagic, 4);
    const std::uint16_t type =
        static_cast<std::uint16_t>(MsgType::SweepRequest);
    std::memcpy(header.data() + 4, &type, 2);
    const std::uint32_t hugeLen = kMaxPayloadBytes + 1;
    std::memcpy(header.data() + 8, &hugeLen, 4);
    const std::uint32_t crc = crc32Final(
        crc32Update(crc32Init(), header.data(), 12));
    std::memcpy(header.data() + 12, &crc, 4);

    const auto decoded = decodeFrameHeader(header.data());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Frame, RejectsUnknownMessageType)
{
    std::string header(kFrameHeaderBytes, '\0');
    std::memcpy(header.data(), kFrameMagic, 4);
    const std::uint16_t type = 0x7777;
    std::memcpy(header.data() + 4, &type, 2);
    const std::uint32_t crc = crc32Final(
        crc32Update(crc32Init(), header.data(), 12));
    std::memcpy(header.data() + 12, &crc, 4);

    const auto decoded = decodeFrameHeader(header.data());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

/** Forge a header with a valid CRC from raw field values. */
std::string
forgeHeader(std::uint16_t type, std::uint16_t flags,
            std::uint32_t payload_len)
{
    std::string header(kFrameHeaderBytes, '\0');
    std::memcpy(header.data(), kFrameMagic, 4);
    std::memcpy(header.data() + 4, &type, 2);
    std::memcpy(header.data() + 6, &flags, 2);
    std::memcpy(header.data() + 8, &payload_len, 4);
    const std::uint32_t crc =
        crc32Final(crc32Update(crc32Init(), header.data(), 12));
    std::memcpy(header.data() + 12, &crc, 4);
    return header;
}

TEST(Dxp1TraceId, RoundTripsThroughTheFlaggedPrefix)
{
    const std::string payload = "sweep body";
    const std::uint64_t traceId = 0x1122334455667788ull;
    const std::string wire =
        encodeFrame(MsgType::SweepRequest, payload, traceId);
    // The prefix is part of the payload: 8 extra bytes on the wire.
    EXPECT_EQ(wire.size(), kFrameHeaderBytes + kTraceIdBytes +
                               payload.size() + kFrameTrailerBytes);
    const Frame frame = mustDecode(wire);
    EXPECT_EQ(frame.type, MsgType::SweepRequest);
    EXPECT_EQ(frame.traceId, traceId);
    // Body parsers never see the prefix.
    EXPECT_EQ(frame.payload, payload);
}

TEST(Dxp1TraceId, ZeroIdEmitsTheLegacyLayoutByteForByte)
{
    EXPECT_EQ(encodeFrame(MsgType::PingRequest, "p", 0),
              encodeFrame(MsgType::PingRequest, "p"));
    const Frame frame = mustDecode(encodeFrame(MsgType::PingRequest, "p"));
    EXPECT_EQ(frame.traceId, 0u);
}

TEST(Dxp1TraceId, TraceFlagWithShortPayloadIsCorruptInput)
{
    // A flagged frame whose payload cannot hold the 8-byte id must be
    // rejected at the header so readers can always slice the prefix.
    const std::string header = forgeHeader(
        static_cast<std::uint16_t>(MsgType::PingRequest),
        kFrameFlagTraceId, kTraceIdBytes - 1);
    const auto decoded = decodeFrameHeader(header.data());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1TraceId, UnknownFlagBitsStayCorruptInput)
{
    for (const std::uint16_t flags : {0x0002, 0x8000, 0x0003})
    {
        const std::string header = forgeHeader(
            static_cast<std::uint16_t>(MsgType::PingRequest), flags,
            64);
        const auto decoded = decodeFrameHeader(header.data());
        ASSERT_FALSE(decoded.ok()) << "flags 0x" << std::hex << flags;
        EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
    }
}

TEST(Dxp1Wire, StringOverCapIsResourceLimit)
{
    WireWriter writer;
    writer.u32(kMaxWireStringBytes + 1);
    writer.u64(0);
    WireReader reader(writer.bytes());
    std::string out;
    const Status status = reader.str(out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Wire, ReadPastEndIsCorruptInput)
{
    WireWriter writer;
    writer.u16(7);
    WireReader reader(writer.bytes());
    std::uint64_t wide = 0;
    const Status status = reader.u64(wide);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, PingRoundTrips)
{
    PingInfo info;
    info.version = "9.9.9-test";
    info.traces = 17;
    const auto parsed = parsePingResponse(encodePingResponse(info));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().version, info.version);
    EXPECT_EQ(parsed.value().traces, info.traces);
}

TEST(Dxp1Bodies, ListRoundTrips)
{
    std::vector<TraceListEntry> listing;
    listing.push_back({"espresso", 0, 1});
    listing.push_back({"trace.dxt", 987654321, 0});
    const auto parsed = parseListResponse(encodeListResponse(listing));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().size(), listing.size());
    for (std::size_t i = 0; i < listing.size(); ++i)
    {
        EXPECT_EQ(parsed.value()[i].name, listing[i].name);
        EXPECT_EQ(parsed.value()[i].fileBytes, listing[i].fileBytes);
        EXPECT_EQ(parsed.value()[i].resident, listing[i].resident);
    }
}

TEST(Dxp1Bodies, ReplayRequestRoundTrips)
{
    ReplayRequest request;
    request.trace = "gcc";
    request.model = "opt";
    request.sizeBytes = 1ull << 20;
    request.lineBytes = 64;
    request.stickyMax = 3;
    request.lastLine = 1;
    request.victimEntries = 8;
    request.deadlineMs = 1500;
    const auto parsed =
        parseReplayRequest(encodeReplayRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().trace, request.trace);
    EXPECT_EQ(parsed.value().model, request.model);
    EXPECT_EQ(parsed.value().sizeBytes, request.sizeBytes);
    EXPECT_EQ(parsed.value().lineBytes, request.lineBytes);
    EXPECT_EQ(parsed.value().stickyMax, request.stickyMax);
    EXPECT_EQ(parsed.value().lastLine, request.lastLine);
    EXPECT_EQ(parsed.value().victimEntries, request.victimEntries);
    EXPECT_EQ(parsed.value().deadlineMs, request.deadlineMs);
}

TEST(Dxp1Bodies, ReplayRequestVictimBufferIsCapped)
{
    // The daemon reserves victimEntries slots up front, so the wire
    // holds them to the CLI's --victim cap.
    ReplayRequest request;
    request.trace = "gcc";
    request.victimEntries = kMaxVictimEntries;
    const auto at_cap = parseReplayRequest(encodeReplayRequest(request));
    ASSERT_TRUE(at_cap.ok()) << at_cap.status().toString();
    EXPECT_EQ(at_cap.value().victimEntries, kMaxVictimEntries);
    for (const std::uint32_t entries :
         {kMaxVictimEntries + 1, std::uint32_t{0xffffffff}}) {
        request.victimEntries = entries;
        const auto over =
            parseReplayRequest(encodeReplayRequest(request));
        ASSERT_FALSE(over.ok()) << entries;
        EXPECT_EQ(over.status().code(), StatusCode::CorruptInput);
        EXPECT_NE(over.status().message().find("65536"),
                  std::string::npos)
            << over.status().toString();
    }
}

TEST(Dxp1Bodies, SweepRequestAcceptsEveryEngineAndRejectsUnknown)
{
    SweepRequest request;
    request.trace = "espresso";
    request.lineBytes = 16;
    request.stickyMax = 2;
    request.deadlineMs = 250;
    for (const std::uint8_t engine : {0, 1, 2})
    {
        request.engine = engine;
        const auto parsed =
            parseSweepRequest(encodeSweepRequest(request));
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        EXPECT_EQ(parsed.value().trace, request.trace);
        EXPECT_EQ(parsed.value().engine, engine);
    }
    request.engine = 3;
    const auto rejected =
        parseSweepRequest(encodeSweepRequest(request));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, EngineByteZeroDecodesAsTheKernel)
{
    // Byte 0 named the retired batched engine; its frames still parse
    // and select the kernel, while encoders send the kernel's own byte.
    SweepRequest request;
    request.trace = "espresso";
    request.engine = 0;
    const auto parsed = parseSweepRequest(encodeSweepRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(replayEngineFromWireCode(parsed.value().engine),
              ReplayEngine::Kernel);
    EXPECT_EQ(replayEngineWireCode(ReplayEngine::Kernel), 2);
    EXPECT_EQ(replayEngineWireCode(ReplayEngine::PerLeg), 1);
}

TEST(Dxp1Bodies, SweepRequestCustomAxisRoundTrips)
{
    SweepRequest request;
    request.trace = "espresso";
    request.lineBytes = 16;
    request.sizes = {1024, 2048, 4096};
    const auto parsed = parseSweepRequest(encodeSweepRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().sizes, request.sizes);
}

TEST(Dxp1Bodies, SweepRequestWithoutAxisKeepsTheLegacyLayout)
{
    // An empty axis must encode byte-identically to the pre-axis
    // layout (no trailing count), so old servers still parse it.
    SweepRequest request;
    request.trace = "espresso";
    request.lineBytes = 16;
    const std::string legacy = encodeSweepRequest(request);
    request.sizes = {1024};
    const std::string custom = encodeSweepRequest(request);
    EXPECT_EQ(custom.size(), legacy.size() + 4 + 8);
    const auto parsed = parseSweepRequest(legacy);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_TRUE(parsed.value().sizes.empty());
}

TEST(Dxp1Bodies, SweepRequestAxisOverCapIsResourceLimit)
{
    SweepRequest request;
    request.trace = "espresso";
    request.sizes.assign(kMaxSweepAxisSizes + 1, 1024);
    const auto parsed = parseSweepRequest(encodeSweepRequest(request));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Bodies, PutRequestRoundTrips)
{
    PutTraceRequest request;
    request.name = "campaign:gcc";
    request.refs = {ifetch(0x1000), load(0x2000, 8),
                    store(0xffff'ffff'0000ull, 1)};
    const auto parsed = parsePutRequest(encodePutRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().name, request.name);
    ASSERT_EQ(parsed.value().refs.size(), request.refs.size());
    for (std::size_t i = 0; i < request.refs.size(); ++i) {
        EXPECT_EQ(parsed.value().refs[i].addr, request.refs[i].addr);
        EXPECT_EQ(parsed.value().refs[i].type, request.refs[i].type);
        EXPECT_EQ(parsed.value().refs[i].size, request.refs[i].size);
    }
}

TEST(Dxp1Bodies, PutRequestRejectsAnEmptyName)
{
    PutTraceRequest request;
    request.refs = {ifetch(0x1000)};
    const auto parsed = parsePutRequest(encodePutRequest(request));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, PutRequestRejectsAnUnknownReferenceKind)
{
    PutTraceRequest request;
    request.name = "x";
    request.refs = {ifetch(0x1000)};
    std::string payload = encodePutRequest(request);
    // Layout: str name (u32 + bytes), u64 count, then 10-byte records
    // { addr u64, kind u8, size u8 }; corrupt the first kind byte.
    const std::size_t kindAt = 4 + request.name.size() + 8 + 8;
    ASSERT_LT(kindAt, payload.size());
    payload[kindAt] = 7;
    const auto parsed = parsePutRequest(payload);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, PutRequestCountOverCapIsResourceLimit)
{
    PutTraceRequest request;
    request.name = "x";
    request.refs = {ifetch(0x1000)};
    std::string payload = encodePutRequest(request);
    // Rewrite the u64 count (after the name) to an absurd value; the
    // cap check must fire before any allocation.
    const std::size_t countAt = 4 + request.name.size();
    for (std::size_t i = 0; i < 8; ++i)
        payload[countAt + i] = static_cast<char>(0xff);
    const auto parsed = parsePutRequest(payload);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Bodies, PutResponseRoundTrips)
{
    PutTraceResult result;
    result.name = "campaign:gcc";
    result.refs = 123456;
    const auto parsed = parsePutResponse(encodePutResponse(result));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().name, result.name);
    EXPECT_EQ(parsed.value().refs, result.refs);
}

TEST(Dxp1Bodies, ReplayResponseRoundTrips)
{
    ReplayResult result;
    result.model = "dynex";
    result.refs = 1000000;
    result.stats.accesses = 1000000;
    result.stats.hits = 800000;
    result.stats.misses = 200000;
    result.stats.coldMisses = 1024;
    result.stats.fills = 150000;
    result.stats.bypasses = 50000;
    result.stats.evictions = 140000;
    const auto parsed =
        parseReplayResponse(encodeReplayResponse(result));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().model, result.model);
    EXPECT_EQ(parsed.value().refs, result.refs);
    EXPECT_EQ(parsed.value().stats.accesses, result.stats.accesses);
    EXPECT_EQ(parsed.value().stats.hits, result.stats.hits);
    EXPECT_EQ(parsed.value().stats.misses, result.stats.misses);
    EXPECT_EQ(parsed.value().stats.coldMisses, result.stats.coldMisses);
    EXPECT_EQ(parsed.value().stats.fills, result.stats.fills);
    EXPECT_EQ(parsed.value().stats.bypasses, result.stats.bypasses);
    EXPECT_EQ(parsed.value().stats.evictions, result.stats.evictions);
}

TEST(Dxp1Bodies, SweepResponseDoublesAreBitExact)
{
    SweepResult result;
    result.trace = "tomcatv";
    result.refs = 3'000'000;
    // Values chosen to have non-terminating binary expansions: a
    // text-formatting round-trip would lose bits, the wire must not.
    result.points.push_back(
        {2048, 1, 100.0 / 3.0, 10.0 / 7.0, 1.0 / 9.0});
    result.points.push_back({1u << 20, 0, 0.0, -0.0, 5e-324});
    result.failures.push_back({"tomcatv", 4096, "dm", 4, "injected"});

    const auto parsed =
        parseSweepResponse(encodeSweepResponse(result));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().points.size(), result.points.size());
    for (std::size_t i = 0; i < result.points.size(); ++i)
    {
        const auto &sent = result.points[i];
        const auto &got = parsed.value().points[i];
        EXPECT_EQ(got.sizeBytes, sent.sizeBytes);
        EXPECT_EQ(got.ok, sent.ok);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dmMissPct),
                  std::bit_cast<std::uint64_t>(sent.dmMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deMissPct),
                  std::bit_cast<std::uint64_t>(sent.deMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.optMissPct),
                  std::bit_cast<std::uint64_t>(sent.optMissPct));
    }
    ASSERT_EQ(parsed.value().failures.size(), 1u);
    EXPECT_EQ(parsed.value().failures[0].bench, "tomcatv");
    EXPECT_EQ(parsed.value().failures[0].sizeBytes, 4096u);
    EXPECT_EQ(parsed.value().failures[0].model, "dm");
    EXPECT_EQ(parsed.value().failures[0].code, 4);
    EXPECT_EQ(parsed.value().failures[0].message, "injected");
}

TEST(Dxp1Bodies, StatsRoundTrips)
{
    StatsResult stats;
    stats.counters.push_back({"requests", 12});
    stats.counters.push_back({"store-resident-bytes", 1ull << 33});
    const auto parsed = parseStatsResponse(encodeStatsResponse(stats));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().counters.size(), 2u);
    EXPECT_EQ(parsed.value().counters[0].first, "requests");
    EXPECT_EQ(parsed.value().counters[0].second, 12u);
    EXPECT_EQ(parsed.value().counters[1].second, 1ull << 33);
}

TEST(Dxp1Bodies, HelloRoundTrips)
{
    HelloInfo hello;
    hello.clientId = "loadgen-3";
    const auto parsed = parseHelloRequest(encodeHelloRequest(hello));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().clientId, hello.clientId);
}

TEST(Dxp1Bodies, BusyRoundTripsItsRetryAfterHint)
{
    BusyInfo busy;
    busy.retryAfterMs = 750;
    const auto parsed = parseBusyResponse(encodeBusyResponse(busy));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().retryAfterMs, 750u);
}

TEST(Dxp1Bodies, LegacyEmptyBusyPayloadParsesAsNoHint)
{
    // Servers that predate the retry-after extension send BUSY with an
    // empty payload; it must keep parsing as "no hint".
    const auto parsed = parseBusyResponse({});
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().retryAfterMs, 0u);
}

TEST(Dxp1Bodies, BusyPayloadWithTrailingGarbageIsRejected)
{
    std::string payload = encodeBusyResponse({250});
    payload += "junk";
    const auto parsed = parseBusyResponse(payload);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::CorruptInput);

    // A short (non-empty, non-u32) payload is equally malformed.
    const auto tooShort = parseBusyResponse(std::string("\x01", 1));
    ASSERT_FALSE(tooShort.ok());
    EXPECT_EQ(tooShort.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, NewStatusCodesSurviveTheWire)
{
    for (const StatusCode code :
         {StatusCode::DeadlineExceeded, StatusCode::Busy})
    {
        const Status sent = code == StatusCode::Busy
                                ? Status::busy("shed", 40)
                                : Status::deadlineExceeded("late");
        const auto parsed =
            parseErrorResponse(encodeErrorResponse(sent));
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        EXPECT_EQ(statusFromWire(parsed.value()).code(), code);
    }
}

TEST(Dxp1Bodies, ErrorRoundTripsThroughStatusFromWire)
{
    const Status sent = Status::resourceLimit("deadline expired");
    const auto parsed =
        parseErrorResponse(encodeErrorResponse(sent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const Status rebuilt = statusFromWire(parsed.value());
    EXPECT_EQ(rebuilt.code(), StatusCode::ResourceLimit);
    EXPECT_NE(rebuilt.toString().find("deadline expired"),
              std::string::npos);
}

TEST(Dxp1Bodies, UnknownWireCodeMapsToInternal)
{
    ErrorInfo error;
    error.code = 200;
    error.message = "from the future";
    EXPECT_EQ(statusFromWire(error).code(), StatusCode::Internal);
}

TEST(Dxp1Fuzz, ShortDeterministicCampaignFindsNoViolations)
{
    const auto report = dynex::test::runFrameFuzzer(1992, 2000);
    EXPECT_EQ(report.iterations, 2000u);
    EXPECT_TRUE(report.ok()) << report.violations.front();
    // The corpus mutants must actually exercise the error paths.
    EXPECT_GT(report.structuredErrors, 0u);
}

} // namespace
} // namespace dynex::server
