#include "trace/trace_path.h"

#include "trace/mmap_io.h"
#include "trace/text_io.h"
#include "trace/trace_io.h"
#include "util/string_utils.h"

namespace dynex
{

TracePathFormat
tracePathFormat(const std::string &path)
{
    const auto ends_with = [&path](const std::string &suffix) {
        return path.size() >= suffix.size() &&
               iequals(path.substr(path.size() - suffix.size()), suffix);
    };
    if (ends_with(".din"))
        return TracePathFormat::Din;
    if (ends_with(".dxt3"))
        return TracePathFormat::Dxt3;
    return TracePathFormat::Binary;
}

Result<Trace>
readTracePath(const std::string &path)
{
    switch (tracePathFormat(path)) {
      case TracePathFormat::Din:
        return readDinTraceFile(path);
      case TracePathFormat::Dxt3:
        return readTraceFile(path);
      case TracePathFormat::Binary:
        break;
    }
    return readTraceFileFast(path);
}

Status
writeTracePath(const Trace &trace, const std::string &path)
{
    switch (tracePathFormat(path)) {
      case TracePathFormat::Din:
        return writeDinTraceFile(trace, path);
      case TracePathFormat::Dxt3:
        return writeTraceFile(trace, path, TraceFormat::Dxt3);
      case TracePathFormat::Binary:
        break;
    }
    return writeTraceFile(trace, path);
}

} // namespace dynex
