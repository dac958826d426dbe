/**
 * @file
 * The memory-reference record: the unit of every trace in the library.
 */

#ifndef DYNEX_TRACE_RECORD_H
#define DYNEX_TRACE_RECORD_H

#include <cstdint>
#include <string>

#include "util/types.h"

namespace dynex
{

/** Kind of memory reference, in the style of pixie/dinero traces. */
enum class RefType : std::uint8_t
{
    Ifetch = 0, ///< instruction fetch
    Load = 1,   ///< data read
    Store = 2,  ///< data write
};

/** @return "ifetch", "load", or "store". */
const char *refTypeName(RefType type);

/** @return true for Load and Store. */
constexpr bool
isData(RefType type)
{
    return type != RefType::Ifetch;
}

/** Which reference stream of a program to keep. */
enum class StreamKind
{
    Instructions, ///< instruction fetches only
    Data,         ///< loads and stores only
    Mixed,        ///< every reference, in program order
};

/** @return true iff references of @p type belong to @p stream. */
constexpr bool
inStream(StreamKind stream, RefType type)
{
    switch (stream) {
      case StreamKind::Instructions:
        return !isData(type);
      case StreamKind::Data:
        return isData(type);
      case StreamKind::Mixed:
        return true;
    }
    return true;
}

/** @return the trace-name suffix of a filtered stream: ".ifetch",
 * ".data", or "" for the mixed stream. */
const char *streamSuffix(StreamKind stream);

/** @return "instruction", "data", or "mixed". */
const char *streamKindName(StreamKind stream);

/**
 * One memory reference. 16 bytes; traces of tens of millions of
 * references are routinely held in memory.
 */
struct MemRef
{
    Addr addr = 0;               ///< byte address
    RefType type = RefType::Ifetch;
    std::uint8_t size = 4;       ///< access size in bytes

    friend bool
    operator==(const MemRef &a, const MemRef &b)
    {
        return a.addr == b.addr && a.type == b.type && a.size == b.size;
    }
};

/** Convenience constructors for the three reference kinds. */
constexpr MemRef
ifetch(Addr addr, std::uint8_t size = 4)
{
    return MemRef{addr, RefType::Ifetch, size};
}

constexpr MemRef
load(Addr addr, std::uint8_t size = 4)
{
    return MemRef{addr, RefType::Load, size};
}

constexpr MemRef
store(Addr addr, std::uint8_t size = 4)
{
    return MemRef{addr, RefType::Store, size};
}

/** Human-readable one-line rendering, e.g. "ifetch 0x1000/4". */
std::string toString(const MemRef &ref);

} // namespace dynex

#endif // DYNEX_TRACE_RECORD_H
