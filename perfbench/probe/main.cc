/**
 * @file
 * perfbench_probe: the compiled half of the dynex benchmark.
 *
 *   perfbench_probe env
 *   perfbench_probe gen --kind serve|campaign --seed N --dir D --refs N
 *   perfbench_probe serve-load --port P --pid PID --dir D --seed N ...
 *   perfbench_probe trace-suite --refs N --workers W --spans 0|1 --spans-out F
 *   perfbench_probe trace-hierarchy --refs N --spans 0|1 --spans-out F
 *   perfbench_probe trace-campaign --spec F --spans 0|1 --spans-out F
 *
 * Every subcommand prints one JSON object on stdout. perfbench/run.py
 * drives it; see perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "sim/kernel.h"
#include "trace/trace_io.h"
#include "tracegen/executor.h"
#include "tracegen/program.h"
#include "tracegen/spec.h"
#include "workload/import.h"

namespace perfbench
{

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) == 0)
            key = key.substr(2);
        values[key] = argv[i + 1];
    }
}

std::string
Args::str(const std::string &key, const std::string &fallback) const
{
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

std::uint64_t
Args::u64(const std::string &key, std::uint64_t fallback) const
{
    const auto it = values.find(key);
    return it == values.end() ? fallback
                              : std::strtoull(it->second.c_str(), nullptr,
                                              10);
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

void
JsonObject::key(const std::string &name)
{
    body += body.empty() ? "" : ", ";
    body += '"';
    body += jsonEscape(name);
    body += "\": ";
}

JsonObject &
JsonObject::num(const std::string &name, double value)
{
    key(name);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body += buf;
    return *this;
}

JsonObject &
JsonObject::count(const std::string &name, std::uint64_t value)
{
    key(name);
    body += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::text(const std::string &name, const std::string &value)
{
    key(name);
    body += '"';
    body += jsonEscape(value);
    body += '"';
    return *this;
}

JsonObject &
JsonObject::flag(const std::string &name, bool value)
{
    key(name);
    body += value ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &name, const std::string &json)
{
    key(name);
    body += json;
    return *this;
}

std::string
JsonObject::str() const
{
    return "{" + body + "}";
}

std::string
jsonArray(const std::vector<std::string> &elements)
{
    std::string out = "[";
    for (std::size_t i = 0; i < elements.size(); ++i)
        out += (i ? ", " : "") + elements[i];
    return out + "]";
}

std::string
jsonNumbers(const std::map<std::string, double> &values)
{
    JsonObject object;
    for (const auto &[name, value] : values)
        object.num(name, value);
    return object.str();
}

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 of (seed, index): distinct, well-mixed seeds per input.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<ServedTrace>
servedTraces(const std::string &dir)
{
    // Fixed programs, most popular first. Half are served from DXT2
    // files and half from DXT3, so cold loads exercise both decoders.
    static const char *const kBenches[] = {"espresso", "li",  "gcc",
                                           "doduc",    "eqntott", "spice",
                                           "fpppp",    "tomcatv"};
    std::vector<ServedTrace> traces;
    for (std::size_t i = 0; i < std::size(kBenches); ++i) {
        ServedTrace trace;
        trace.bench = kBenches[i];
        trace.name = 's' + std::to_string(i);
        trace.name += '_';
        trace.name += trace.bench;
        trace.path = dir + "/" + trace.name + (i % 2 ? ".dxt3" : ".dxt");
        traces.push_back(trace);
    }
    return traces;
}

namespace
{

dynex::Trace
seededTrace(const std::string &bench, std::uint64_t refs, std::uint64_t seed)
{
    auto program = dynex::makeSpecProgram(bench);
    return dynex::generateTrace(*program, refs, seed);
}

bool
check(const dynex::Status &status, const std::string &what)
{
    if (status.ok())
        return true;
    std::fprintf(stderr, "perfbench_probe: %s: %s\n", what.c_str(),
                 status.toString().c_str());
    return false;
}

std::string
campaignSpec(const std::string &dir, const std::string &engine_line,
             const std::string &prefix)
{
    std::ostringstream spec;
    spec << "campaign \"perfbench\" {\n"
         << "  trace import \"" << dir << "/in_text.txt\" format text as "
         << "t_text;\n"
         << "  trace import \"" << dir << "/in_lackey.lk\" format lackey as "
         << "t_lackey;\n"
         << "  trace file \"" << dir << "/in_dxt2.dxt\" as t_dxt2;\n"
         << "  trace file \"" << dir << "/in_dxt3.dxt3\" as t_dxt3;\n"
         << "  models dm, dynex, opt;\n"
         << "  sizes 2KB, 8KB, 32KB;\n"
         << "  lines 4, 16;\n"
         << engine_line << "  output json \"" << dir << "/" << prefix
         << ".json\";\n"
         << "  output csv \"" << dir << "/" << prefix << ".csv\";\n"
         << "}\n";
    return spec.str();
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
cmdEnv(const Args &)
{
    JsonObject env;
    env.text("kernel_isa",
             dynex::kernelIsaName(dynex::kernelDispatchIsa()));
#if defined(__clang__)
    env.text("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    env.text("compiler", std::string("gcc ") + __VERSION__);
#else
    env.text("compiler", "unknown");
#endif
    std::printf("%s\n", env.str().c_str());
    return 0;
}

int
cmdGen(const Args &args)
{
    const std::string kind = args.str("kind");
    const std::string dir = args.str("dir");
    const std::uint64_t seed = args.u64("seed", 1);
    const std::uint64_t refs = args.u64("refs", 100000);
    if (dir.empty() || (kind != "serve" && kind != "campaign")) {
        std::fprintf(stderr, "perfbench_probe gen: need --kind serve|"
                             "campaign and --dir\n");
        return 2;
    }
    std::filesystem::create_directories(dir);

    std::vector<std::string> files;
    std::uint64_t dxtBytes = 0;
    std::uint64_t dxtRefs = 0;
    auto addDxt = [&](const std::string &path, std::uint64_t n) {
        dxtBytes += std::filesystem::file_size(path);
        dxtRefs += n;
    };

    if (kind == "serve") {
        const auto traces = servedTraces(dir);
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const dynex::Trace trace =
                seededTrace(traces[i].bench, refs, inputSeed(seed, i));
            const auto format = i % 2 ? dynex::TraceFormat::Dxt3
                                      : dynex::TraceFormat::Dxt2;
            if (!check(dynex::writeTraceFile(trace, traces[i].path, format),
                       traces[i].path))
                return 3;
            files.push_back("\"" + jsonEscape(traces[i].path) + "\"");
            addDxt(traces[i].path, trace.size());
        }
    } else {
        // One input per import path: text, lackey, a DXT2 and a DXT3
        // file, each from its own program.
        const dynex::Trace text = seededTrace("li", refs, inputSeed(seed, 100));
        const dynex::Trace lackey =
            seededTrace("espresso", refs, inputSeed(seed, 101));
        const dynex::Trace dxt2 = seededTrace("gcc", refs, inputSeed(seed, 102));
        const dynex::Trace dxt3 =
            seededTrace("doduc", refs, inputSeed(seed, 103));
        const std::string textPath = dir + "/in_text.txt";
        const std::string lackeyPath = dir + "/in_lackey.lk";
        const std::string dxt2Path = dir + "/in_dxt2.dxt";
        const std::string dxt3Path = dir + "/in_dxt3.dxt3";
        if (!check(dynex::workload::writeTextTraceFile(text, textPath),
                   textPath) ||
            !check(dynex::workload::writeLackeyTraceFile(lackey, lackeyPath),
                   lackeyPath) ||
            !check(dynex::writeTraceFile(dxt2, dxt2Path,
                                         dynex::TraceFormat::Dxt2),
                   dxt2Path) ||
            !check(dynex::writeTraceFile(dxt3, dxt3Path,
                                         dynex::TraceFormat::Dxt3),
                   dxt3Path))
            return 3;
        addDxt(dxt2Path, dxt2.size());
        addDxt(dxt3Path, dxt3.size());
        // The timed spec leaves the engine to the program's default;
        // the reference spec pins the per-leg engine.
        const std::string timed = dir + "/campaign.dxc";
        const std::string reference = dir + "/reference.dxc";
        if (!writeText(timed, campaignSpec(dir, "", "out")) ||
            !writeText(reference,
                       campaignSpec(dir, "  engine per-leg;\n", "ref"))) {
            std::fprintf(stderr, "perfbench_probe: cannot write specs\n");
            return 3;
        }
        for (const std::string &path :
             {textPath, lackeyPath, dxt2Path, dxt3Path, timed, reference})
            files.push_back("\"" + jsonEscape(path) + "\"");
    }

    JsonObject out;
    out.raw("files", jsonArray(files));
    out.num("dxt_bytes_per_ref",
            dxtRefs ? static_cast<double>(dxtBytes) /
                          static_cast<double>(dxtRefs)
                    : 0.0);
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_probe <command> [--flag v]...\n");
        return 2;
    }
    const std::string command = argv[1];
    const Args args(argc, argv, 2);
    if (command == "env")
        return cmdEnv(args);
    if (command == "gen")
        return cmdGen(args);
    if (command == "serve-load")
        return cmdServeLoad(args);
    if (command == "trace-suite")
        return cmdTraceSuite(args);
    if (command == "trace-hierarchy")
        return cmdTraceHierarchy(args);
    if (command == "trace-campaign")
        return cmdTraceCampaign(args);
    std::fprintf(stderr, "perfbench_probe: unknown command '%s'\n",
                 command.c_str());
    return 2;
}
