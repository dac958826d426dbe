/** @file Unit tests of the workload provider and its memoization. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/workloads.h"
#include "trace/filter.h"
#include "tracegen/builder.h"
#include "tracegen/executor.h"
#include "tracegen/spec.h"

namespace dynex
{
namespace
{

TEST(Workloads, InstructionStreamIsPureIfetch)
{
    const auto trace = Workloads::instructions("li", 30000);
    ASSERT_EQ(trace->size(), 30000u);
    for (const auto &ref : *trace)
        ASSERT_EQ(ref.type, RefType::Ifetch);
}

TEST(Workloads, DataStreamIsPureData)
{
    const auto trace = Workloads::data("gcc", 10000);
    ASSERT_EQ(trace->size(), 10000u);
    for (const auto &ref : *trace)
        ASSERT_TRUE(isData(ref.type));
}

TEST(Workloads, MemoReturnsTheSameObject)
{
    Workloads::dropCache();
    const auto first = Workloads::mixed("mat300", 20000);
    const auto second = Workloads::mixed("mat300", 20000);
    EXPECT_EQ(first.get(), second.get());
}

TEST(Workloads, DifferentKeysAreDifferentTraces)
{
    const auto a = Workloads::mixed("mat300", 20000);
    const auto b = Workloads::mixed("mat300", 25000);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(b->size(), 25000u);
}

TEST(Workloads, DropCacheReleasesEntries)
{
    const auto first = Workloads::mixed("tomcatv", 20000);
    Workloads::dropCache();
    const auto second = Workloads::mixed("tomcatv", 20000);
    EXPECT_NE(first.get(), second.get());
    ASSERT_EQ(first->size(), second->size());
    for (std::size_t i = 0; i < first->size(); ++i)
        ASSERT_EQ((*first)[i], (*second)[i]);
}

TEST(Workloads, DefaultRefsRespectsEnvironment)
{
    ::setenv("DYNEX_REFS", "123456", 1);
    EXPECT_EQ(Workloads::defaultRefs(), 123456u);
    ::setenv("DYNEX_REFS", "garbage", 1);
    EXPECT_EQ(Workloads::defaultRefs(), 2000000u)
        << "invalid values fall back to the built-in default";
    ::unsetenv("DYNEX_REFS");
    EXPECT_EQ(Workloads::defaultRefs(), 2000000u);
}

/** A filtered stream as the provider once built it: filter a mixed
 * trace of twice the budget, doubling that budget until enough
 * references of the kind survive, then truncate. */
struct FilterThenTruncate
{
    Trace trace;
    int widenings = 0; ///< doublings past the first 2x attempt
};

FilterThenTruncate
filterThenTruncate(const std::string &name, Count refs, StreamKind kind)
{
    Count budget = refs * 2;
    for (int attempt = 0; attempt < 8; ++attempt) {
        const Trace mixed = makeSpecTrace(name, budget);
        const Trace subset = kind == StreamKind::Data
                                 ? dataRefs(mixed)
                                 : instructionRefs(mixed);
        if (subset.size() >= refs)
            return {truncate(subset, refs), attempt};
        budget *= 2;
    }
    ADD_FAILURE() << name << " never produced " << refs << " references";
    return {};
}

class FilteredStreamTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FilteredStreamTest, MatchesFilterThenTruncateRecordForRecord)
{
    const std::string name = GetParam();
    // 1000 and 30000 are the test budgets. 100000 is the hierarchy
    // grid's, where the old data path had to widen its mixed budget.
    for (const Count refs : {Count{1000}, Count{30000}, Count{100000}}) {
        for (const StreamKind kind :
             {StreamKind::Instructions, StreamKind::Data}) {
            Workloads::dropCache();
            const auto direct = Workloads::stream(name, refs, kind);
            const auto oracle = filterThenTruncate(name, refs, kind);
            SCOPED_TRACE(name + " " + streamKindName(kind) + " " +
                         std::to_string(refs));
            if (kind == StreamKind::Data && refs == 100000) {
                EXPECT_GE(oracle.widenings, 1);
            }
            EXPECT_EQ(direct->name(), oracle.trace.name());
            ASSERT_EQ(direct->size(), oracle.trace.size());
            EXPECT_TRUE(direct->records() == oracle.trace.records());
        }
    }
    Workloads::dropCache();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, FilteredStreamTest,
    ::testing::Values("doduc", "eqntott", "espresso", "fpppp", "gcc",
                      "li", "mat300", "nasa7", "spice", "tomcatv"));

TEST(Workloads, NamedAccessorsAreTheStreamAccessor)
{
    Workloads::dropCache();
    EXPECT_EQ(Workloads::instructions("li", 5000).get(),
              Workloads::stream("li", 5000, StreamKind::Instructions).get());
    EXPECT_EQ(Workloads::data("li", 5000).get(),
              Workloads::stream("li", 5000, StreamKind::Data).get());
    EXPECT_EQ(Workloads::mixed("li", 5000).get(),
              Workloads::stream("li", 5000, StreamKind::Mixed).get());
}

TEST(WorkloadsDeathTest, ProgramWithoutDataFailsInsteadOfLooping)
{
    Program program("nodata");
    Function *entry = program.addFunction("main");
    entry->setBody(seq(codeBlock(program, 64)));
    program.setEntry(entry);
    // The walk stops at kFilteredWalkFactor x the budget, so this dies
    // promptly rather than walking the program forever.
    EXPECT_DEATH(generateTrace(program, 1000, 7, StreamKind::Data),
                 "too few data references");
}

} // namespace
} // namespace dynex
