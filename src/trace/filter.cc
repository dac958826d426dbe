#include "trace/filter.h"

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

namespace
{

Trace
filterByPredicate(const Trace &trace, StreamKind stream)
{
    Trace out(trace.name() + streamSuffix(stream));
    for (const auto &ref : trace) {
        if (inStream(stream, ref.type))
            out.append(ref);
    }
    return out;
}

} // namespace

Trace
instructionRefs(const Trace &trace)
{
    return filterByPredicate(trace, StreamKind::Instructions);
}

Trace
dataRefs(const Trace &trace)
{
    return filterByPredicate(trace, StreamKind::Data);
}

Trace
truncate(const Trace &trace, std::size_t n)
{
    if (n >= trace.size())
        return trace;
    Trace out(trace.name());
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.append(trace[i]);
    return out;
}

Trace
quantize(const Trace &trace, std::uint64_t granularity)
{
    DYNEX_ASSERT(isPowerOfTwo(granularity),
                 "granularity must be a power of two");
    Trace out(trace.name());
    out.reserve(trace.size());
    for (auto ref : trace) {
        ref.addr = alignDown(ref.addr, granularity);
        out.append(ref);
    }
    return out;
}

Trace
relocate(const Trace &trace, std::int64_t delta)
{
    Trace out(trace.name());
    out.reserve(trace.size());
    for (auto ref : trace) {
        ref.addr = static_cast<Addr>(static_cast<std::int64_t>(ref.addr) +
                                     delta);
        out.append(ref);
    }
    return out;
}

Count
lineReferenceCount(const Trace &trace, std::uint64_t block_size)
{
    DYNEX_ASSERT(isPowerOfTwo(block_size),
                 "block size must be a power of two");
    const unsigned shift = floorLog2(block_size);
    Count runs = 0;
    Addr prev_block = kAddrInvalid;
    for (const auto &ref : trace) {
        const Addr block = ref.addr >> shift;
        if (block != prev_block) {
            ++runs;
            prev_block = block;
        }
    }
    return runs;
}

} // namespace dynex
