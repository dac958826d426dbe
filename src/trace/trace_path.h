/**
 * @file
 * The one mapping from a trace file's suffix to its format, shared by
 * the CLI, the daemon's file-backed traces and campaign `file`
 * sources: `.din` is din text, `.dxt3` is DXT3, and any other name is
 * a binary DXT1/DXT2 trace. Suffixes match case-insensitively.
 */

#ifndef DYNEX_TRACE_TRACE_PATH_H
#define DYNEX_TRACE_TRACE_PATH_H

#include <string>

#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** The format a trace path's suffix names. */
enum class TracePathFormat
{
    Din,    ///< `.din`: din text (trace/text_io.h)
    Dxt3,   ///< `.dxt3`: compressed binary (trace/dxt3.h)
    Binary, ///< anything else: DXT2 on write, any DXT by magic on read
};

/** @return the format @p path's suffix names. */
TracePathFormat tracePathFormat(const std::string &path);

/**
 * Read the trace at @p path with the reader its suffix names: the din
 * text reader, the streaming DXT reader for `.dxt3`, and otherwise
 * readTraceFileFast (the mmap'd DXT2 decoder with a streaming
 * fallback). The binary readers recognise DXT1/DXT2/DXT3 by magic, so
 * a mislabelled binary file still reads.
 */
Result<Trace> readTracePath(const std::string &path);

/** Write @p trace to @p path in the format its suffix names (DXT2 for
 * Binary). */
Status writeTracePath(const Trace &trace, const std::string &path);

} // namespace dynex

#endif // DYNEX_TRACE_TRACE_PATH_H
