#include "tracegen/executor.h"

#include "util/logging.h"

namespace dynex
{

ExecContext::ExecContext(Trace &output, Count budget, std::uint64_t seed,
                         StreamKind stream, std::uint32_t max_call_depth)
    : out(&output), stopAt(budget),
      skipCap((kFilteredWalkFactor - 1) * budget),
      keepInstr(inStream(stream, RefType::Ifetch)),
      keepData(inStream(stream, RefType::Load)), randomStream(seed),
      maxCallDepth(max_call_depth)
{
}

void
ExecContext::emitInstr(Addr addr)
{
    if (done())
        return;
    if (keepInstr) {
        out->append(ifetch(addr));
        ++emitted;
    } else {
        skip();
    }
}

void
ExecContext::emitLoad(Addr addr)
{
    if (done())
        return;
    if (keepData) {
        out->append(load(addr));
        ++emitted;
    } else {
        skip();
    }
}

void
ExecContext::emitStore(Addr addr)
{
    if (done())
        return;
    if (keepData) {
        out->append(store(addr));
        ++emitted;
    } else {
        skip();
    }
}

void
ExecContext::skip()
{
    // The limit is on skipped references, so it only binds on a
    // filtered walk: (kFilteredWalkFactor - 1) * budget skips plus the
    // budget itself is the 256x-budget mixed walk the old
    // generate-then-filter path gave up after.
    if (++skipped > skipCap)
        stopAt = 0;
}

bool
ExecContext::enterCall()
{
    if (callDepth >= maxCallDepth)
        return false;
    ++callDepth;
    return true;
}

void
ExecContext::leaveCall()
{
    DYNEX_ASSERT(callDepth > 0, "leaveCall without enterCall");
    --callDepth;
}

Count
measurePassLength(Program &program, std::uint64_t seed, Count cap)
{
    DYNEX_ASSERT(program.entryFunction() != nullptr,
                 "program '", program.name(), "' has no entry function");
    program.resetPatterns();
    Trace scratch("pass");
    ExecContext ctx(scratch, cap, seed);
    program.entryFunction()->bodyNode()->execute(ctx);
    return ctx.emittedCount();
}

Trace
generateTrace(Program &program, Count num_refs, std::uint64_t seed,
              StreamKind stream)
{
    DYNEX_ASSERT(program.entryFunction() != nullptr,
                 "program '", program.name(), "' has no entry function");
    DYNEX_ASSERT(program.entryFunction()->bodyNode() != nullptr,
                 "entry function has no body");

    program.resetPatterns();
    Trace trace(program.name() + streamSuffix(stream));
    trace.reserve(num_refs);
    ExecContext ctx(trace, num_refs, seed, stream);
    while (!ctx.done()) {
        const Count before = ctx.walkedCount();
        program.entryFunction()->bodyNode()->execute(ctx);
        DYNEX_ASSERT(ctx.walkedCount() > before,
                     "program '", program.name(),
                     "' emitted nothing in a whole pass");
    }
    if (ctx.emittedCount() < num_refs) {
        DYNEX_FATAL("benchmark '", program.name(), "' produced too few ",
                    streamKindName(stream), " references: ",
                    ctx.emittedCount(), " of ", num_refs, " in ",
                    ctx.walkedCount(), " walked");
    }
    return trace;
}

} // namespace dynex
