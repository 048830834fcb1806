/**
 * @file
 * Run-report serialization tests: the JSON output must be
 * schema-valid (oma-run-report-v1) as the strict api::parseJson reads
 * it, the CSV flat and complete, and save() must honor the
 * OMA_RUN_REPORT / OMA_RUN_REPORT_DIR knobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/report.hh"
#include "tests/api/json_path.hh"

namespace oma::obs
{
namespace
{

using api::jsonAt;
using api::jsonNumber;
using api::jsonString;

RunReport
sampleReport()
{
    RunReport report("unit_sample");
    report.meta["benchmark"] = "mab";
    report.meta["os"] = "mach3";
    report.metrics.add("icache/misses", 42);
    report.metrics.add("dcache/misses", 7);
    report.metrics.set("rate/refs_per_sec", 1.5e6);
    report.metrics.accumulate("time_ms/total", 12.5);
    report.metrics.observe("tlb/refills", 3);
    report.metrics.observe("tlb/refills", 300);
    return report;
}

std::string
toJson(const RunReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

/** Strictly parse @p text into @p doc, failing the test on error. */
void
parse(const std::string &text, api::JsonValue &doc)
{
    std::string error;
    ASSERT_TRUE(api::parseJson(text, doc, error)) << error << "\n"
                                                  << text;
}

TEST(RunReportDeath, RejectsUnsafeNames)
{
    // The name becomes a file name verbatim; anything outside
    // [A-Za-z0-9_-] must be refused at construction.
    EXPECT_EXIT(RunReport("../escape"), testing::ExitedWithCode(1),
                "A-Za-z0-9_-");
    EXPECT_EXIT(RunReport("has space"), testing::ExitedWithCode(1),
                "A-Za-z0-9_-");
    EXPECT_EXIT(RunReport(""), testing::ExitedWithCode(1),
                "must not be empty");
}

TEST(RunReport, FileNameFollowsTheBenchConvention)
{
    EXPECT_EQ(RunReport("table1").fileName(), "BENCH_table1.json");
}

TEST(RunReport, JsonIsWellFormedAndSchemaTagged)
{
    api::JsonValue doc;
    ASSERT_NO_FATAL_FAILURE(parse(toJson(sampleReport()), doc));
    EXPECT_EQ(jsonString(doc, "schema"), "oma-run-report-v1");
    EXPECT_EQ(jsonString(doc, "name"), "unit_sample");
    // All four sections are present even when some are empty.
    EXPECT_NE(jsonAt(doc, "meta"), nullptr);
    EXPECT_NE(jsonAt(doc, "counters"), nullptr);
    EXPECT_NE(jsonAt(doc, "gauges"), nullptr);
    EXPECT_NE(jsonAt(doc, "histograms"), nullptr);
}

TEST(RunReport, JsonCarriesEveryMetric)
{
    api::JsonValue doc;
    ASSERT_NO_FATAL_FAILURE(parse(toJson(sampleReport()), doc));
    EXPECT_EQ(jsonString(doc, "meta.benchmark"), "mab");
    EXPECT_EQ(jsonString(doc, "meta.os"), "mach3");
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "counters.icache/misses"), 42.0);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "counters.dcache/misses"), 7.0);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "gauges.rate/refs_per_sec"), 1.5e6);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "gauges.time_ms/total"), 12.5);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "histograms.tlb/refills.count"),
                     2.0);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "histograms.tlb/refills.sum"),
                     303.0);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "histograms.tlb/refills.min"), 3.0);
    EXPECT_DOUBLE_EQ(jsonNumber(doc, "histograms.tlb/refills.max"),
                     300.0);
    EXPECT_NE(jsonAt(doc, "histograms.tlb/refills.buckets"), nullptr);
}

TEST(RunReport, EmptyReportIsStillValidJson)
{
    api::JsonValue doc;
    ASSERT_NO_FATAL_FAILURE(parse(toJson(RunReport("empty")), doc));
    EXPECT_EQ(jsonString(doc, "schema"), "oma-run-report-v1");
}

TEST(RunReport, EscapesHostileMetaStrings)
{
    RunReport report("escapes");
    report.meta["cmd"] = "a\"b\\c\nd\te";
    api::JsonValue doc;
    ASSERT_NO_FATAL_FAILURE(parse(toJson(report), doc));
    EXPECT_EQ(jsonString(doc, "meta.cmd"), "a\"b\\c\nd\te");
}

TEST(RunReport, NonFiniteGaugesSerializeAsStrings)
{
    // JSON has no inf/nan literals; a gauge that held one must not
    // produce an unparseable document.
    RunReport report("nonfinite");
    report.metrics.set("g/pos", std::numeric_limits<double>::infinity());
    report.metrics.set("g/neg",
                       -std::numeric_limits<double>::infinity());
    report.metrics.set("g/nan",
                       std::numeric_limits<double>::quiet_NaN());
    api::JsonValue doc;
    ASSERT_NO_FATAL_FAILURE(parse(toJson(report), doc));
    EXPECT_EQ(jsonString(doc, "gauges.g/pos"), "inf");
    EXPECT_EQ(jsonString(doc, "gauges.g/neg"), "-inf");
    EXPECT_EQ(jsonString(doc, "gauges.g/nan"), "nan");
}

TEST(RunReport, SerializationIsDeterministic)
{
    // Ordered maps underneath: two passes over the same report are
    // textually identical.
    const RunReport report = sampleReport();
    EXPECT_EQ(toJson(report), toJson(report));
}

TEST(RunReport, SaveWritesIntoTheRequestedDirectory)
{
    const std::string path = sampleReport().save(".");
    ASSERT_EQ(path, "./BENCH_unit_sample.json");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream read_back;
    read_back << in.rdbuf();
    api::JsonValue doc;
    ASSERT_NO_FATAL_FAILURE(parse(read_back.str(), doc));
    EXPECT_EQ(jsonString(doc, "name"), "unit_sample");
    std::remove(path.c_str());
}

TEST(RunReport, SaveHonorsTheDisableKnob)
{
    ASSERT_EQ(setenv("OMA_RUN_REPORT", "0", 1), 0);
    EXPECT_EQ(sampleReport().save("."), "");
    ASSERT_EQ(unsetenv("OMA_RUN_REPORT"), 0);
}

TEST(RunReport, SaveHonorsTheDirEnvVariable)
{
    ASSERT_EQ(setenv("OMA_RUN_REPORT_DIR", ".", 1), 0);
    const std::string path = sampleReport().save();
    EXPECT_EQ(path, "./BENCH_unit_sample.json");
    ASSERT_EQ(unsetenv("OMA_RUN_REPORT_DIR"), 0);
    std::remove(path.c_str());
}

TEST(RunReport, SaveToUnwritablePathWarnsButSurvives)
{
    EXPECT_EQ(sampleReport().save("/nonexistent-dir-for-oma-test"),
              "");
}

} // namespace
} // namespace oma::obs
