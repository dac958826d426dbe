/**
 * @file
 * Shared plumbing for the benchmark probe: flag parsing, a flat JSON
 * object writer, the seeded input layout, and the subcommand entry
 * points.
 */

#ifndef DYNEX_PERFBENCH_COMMON_H
#define DYNEX_PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** `--key value` pairs; a later flag of the same name wins. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    std::string str(const std::string &key,
                    const std::string &fallback = {}) const;
    std::uint64_t u64(const std::string &key, std::uint64_t fallback) const;

  private:
    std::map<std::string, std::string> values;
};

/** One JSON object, built key by key; doubles keep all 17 digits. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value);
    JsonObject &count(const std::string &key, std::uint64_t value);
    JsonObject &text(const std::string &key, const std::string &value);
    JsonObject &flag(const std::string &key, bool value);
    /** @p json is inserted verbatim (an object or array). */
    JsonObject &raw(const std::string &key, const std::string &json);

    std::string str() const;

  private:
    void key(const std::string &name);
    std::string body;
};

std::string jsonEscape(const std::string &text);

/** A JSON array of already-serialized elements. */
std::string jsonArray(const std::vector<std::string> &elements);

/** A JSON object mapping names to numbers. */
std::string jsonNumbers(const std::map<std::string, double> &values);

/** 64-bit seed for input @p index of the run seeded with @p seed. */
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t index);

/** The traces a seeded serve_mixed run serves, in popularity order. */
struct ServedTrace
{
    std::string bench; ///< suite program the trace is generated from
    std::string path;  ///< file the daemon serves (stem = wire name)
    std::string name;  ///< the wire name
};
std::vector<ServedTrace> servedTraces(const std::string &dir);

int cmdEnv(const Args &args);
int cmdGen(const Args &args);
int cmdServeLoad(const Args &args);
int cmdTraceSuite(const Args &args);
int cmdTraceHierarchy(const Args &args);
int cmdTraceCampaign(const Args &args);

} // namespace perfbench

#endif // DYNEX_PERFBENCH_COMMON_H
