/**
 * @file
 * The observability determinism contract: attaching an
 * obs::Observation to ComponentSweep::run / ExhaustiveStrategy::search
 * must never change the results — bitwise, at 1 and 4 threads — and
 * the collected counters must be a pure function of the work (equal
 * across thread counts, equal to the SweepResult they describe).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>

#include "core/search_strategy.hh"
#include "core/sweep.hh"
#include "obs/export.hh"
#include "obs/report.hh"
#include "tests/api/json_path.hh"

namespace oma
{
namespace
{

void
expectSameCacheStats(const CacheStats &a, const CacheStats &b,
                     const char *what, std::size_t i)
{
    for (unsigned k = 0; k < numRefKinds; ++k) {
        ASSERT_EQ(a.accesses[k], b.accesses[k]) << what << " " << i;
        ASSERT_EQ(a.misses[k], b.misses[k]) << what << " " << i;
    }
    ASSERT_EQ(a.lineFills, b.lineFills) << what << " " << i;
    ASSERT_EQ(a.writebacks, b.writebacks) << what << " " << i;
    ASSERT_EQ(a.writeThroughWords, b.writeThroughWords)
        << what << " " << i;
    ASSERT_EQ(a.compulsoryMisses, b.compulsoryMisses)
        << what << " " << i;
}

void
expectSameMmuStats(const MmuStats &a, const MmuStats &b, std::size_t i)
{
    ASSERT_EQ(a.translations, b.translations) << "tlb " << i;
    for (unsigned c = 0; c < numMissClasses; ++c) {
        ASSERT_EQ(a.counts[c], b.counts[c]) << "tlb " << i;
        ASSERT_EQ(a.cycles[c], b.cycles[c]) << "tlb " << i;
    }
    ASSERT_EQ(a.asidFlushes, b.asidFlushes) << "tlb " << i;
}

/** Bitwise double equality (== would conflate -0.0 and 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameSweepResult(const SweepResult &plain, const SweepResult &obs)
{
    ASSERT_EQ(plain.instructions, obs.instructions);
    ASSERT_EQ(plain.references, obs.references);
    ASSERT_EQ(plain.icacheCount(), obs.icacheCount());
    ASSERT_EQ(plain.dcacheCount(), obs.dcacheCount());
    ASSERT_EQ(plain.tlbCount(), obs.tlbCount());
    for (std::size_t i = 0; i < plain.icacheCount(); ++i)
        expectSameCacheStats(plain.icache(i).stats,
                             obs.icache(i).stats, "icache", i);
    for (std::size_t i = 0; i < plain.dcacheCount(); ++i)
        expectSameCacheStats(plain.dcache(i).stats,
                             obs.dcache(i).stats, "dcache", i);
    for (std::size_t i = 0; i < plain.tlbCount(); ++i)
        expectSameMmuStats(plain.tlb(i).stats, obs.tlb(i).stats, i);
    EXPECT_TRUE(sameBits(plain.wbCpi, obs.wbCpi));
    EXPECT_TRUE(sameBits(plain.otherCpi, obs.otherCpi));
}

std::vector<CacheGeometry>
cacheSubset()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : {2, 8})
        geoms.push_back(CacheGeometry::fromWords(kb * 1024, 4, 1));
    return geoms;
}

std::vector<TlbGeometry>
tlbSubset()
{
    return {TlbGeometry::fullyAssoc(32), TlbGeometry(128, 2)};
}

/** The workload most tests here sweep. */
const WorkloadParams &
mab()
{
    return benchmarkParams(BenchmarkId::Mab);
}

ComponentSweep
sweepUnderTest()
{
    return ComponentSweep(cacheSubset(), cacheSubset(), tlbSubset());
}

RunConfig
runConfig(unsigned threads)
{
    RunConfig rc;
    rc.references = 60000;
    rc.seed = 42;
    rc.threads = threads;
    return rc;
}

/** Sum of a SweepResult-derived quantity, for counter cross-checks. */
template <typename View>
std::uint64_t
sumCacheMisses(const SweepResult &r, std::size_t count, View view)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count; ++i)
        total += view(r, i).stats.totalMisses();
    return total;
}

TEST(ObservedSweep, ObservationNeverChangesTheResultAt1And4Threads)
{
    // The issue's acceptance bar: metrics-on and metrics-off sweeps
    // produce bitwise-identical SweepResults at 1 and at 4 threads.
    const ComponentSweep sweep = sweepUnderTest();
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const SweepResult plain =
            sweep.run(mab(), OsKind::Mach, runConfig(threads));
        obs::Observation observation;
        const SweepResult observed = sweep.run(
            mab(), OsKind::Mach, runConfig(threads), &observation);
        expectSameSweepResult(plain, observed);
        EXPECT_FALSE(observation.metrics.empty());
    }
}

TEST(ObservedSweep, CountersAreThreadCountInvariant)
{
    // Event counters come from per-task shards merged in task order,
    // so they are a function of the work alone. Pool-shape metrics
    // (threadpool/*) and wall-clock gauges are configuration and
    // timing respectively, and are excluded by contract.
    const ComponentSweep sweep = sweepUnderTest();
    obs::Observation serial, parallel;
    (void)sweep.run(mab(), OsKind::Mach, runConfig(1), &serial);
    (void)sweep.run(mab(), OsKind::Mach, runConfig(4), &parallel);
    for (const auto &[name, value] : serial.metrics.counters()) {
        if (name.rfind("threadpool/", 0) == 0)
            continue;
        EXPECT_EQ(parallel.metrics.counter(name), value) << name;
    }
    ASSERT_EQ(serial.metrics.counters().size(),
              parallel.metrics.counters().size());
}

TEST(ObservedSweep, CountersMatchTheSweepResultTheyDescribe)
{
    const ComponentSweep sweep = sweepUnderTest();
    obs::Observation observation;
    const SweepResult r =
        sweep.run(mab(), OsKind::Mach, runConfig(2), &observation);
    const obs::MetricRegistry &m = observation.metrics;
    EXPECT_EQ(m.counter("icache/misses"),
              sumCacheMisses(r, r.icacheCount(),
                             [](const SweepResult &sr, std::size_t i) {
                                 return sr.icache(i);
                             }));
    EXPECT_EQ(m.counter("dcache/misses"),
              sumCacheMisses(r, r.dcacheCount(),
                             [](const SweepResult &sr, std::size_t i) {
                                 return sr.dcache(i);
                             }));
    std::uint64_t tlb_refills = 0;
    for (std::size_t i = 0; i < r.tlbCount(); ++i)
        tlb_refills += r.tlb(i).stats.refillCycles();
    EXPECT_EQ(m.counter("tlb/refill_cycles"), tlb_refills);
    EXPECT_EQ(m.counter("machine/instructions"), r.instructions);
    EXPECT_EQ(m.counter("trace/references"), r.references);
    EXPECT_EQ(m.counter("sweep/replays"), 1u);
    // Both phases timed exactly once.
    EXPECT_EQ(m.counter("calls/sweep/record"), 1u);
    EXPECT_EQ(m.counter("calls/sweep/replay"), 1u);
    EXPECT_GE(m.gauge("time_ms/sweep/replay"), 0.0);
}

TEST(ObservedSweep, ProgressTicksOncePerTask)
{
    const ComponentSweep sweep = sweepUnderTest();
    // Progress callbacks may run concurrently on worker lanes.
    std::atomic<std::uint64_t> last_total{0};
    obs::Progress progress(
        1 + 2 * cacheSubset().size() + tlbSubset().size(),
        [&last_total](std::uint64_t, std::uint64_t total) {
            last_total.store(total);
        },
        2);
    obs::Observation observation;
    observation.progress = &progress;
    (void)sweep.run(mab(), OsKind::Mach, runConfig(4), &observation);
    // One tick per task: reference machine + every cache + every TLB.
    EXPECT_EQ(progress.done(),
              1 + 2 * cacheSubset().size() + tlbSubset().size());
    EXPECT_EQ(last_total.load(), progress.done());
}

TEST(ObservedSweep, ReportFromAnObservedRunIsSchemaValid)
{
    // End to end: sweep -> exporters -> RunReport -> JSON with
    // per-component counters and phase timings, as a bench emits it.
    const ComponentSweep sweep = sweepUnderTest();
    obs::Observation observation;
    const SweepResult r =
        sweep.run(mab(), OsKind::Mach, runConfig(2), &observation);
    obs::RunReport report("observed_sweep_unit");
    report.meta["benchmark"] = "mab";
    report.metrics = observation.metrics;
    obs::exportSweepResult(report.metrics, r);

    std::ostringstream os;
    report.writeJson(os);
    api::JsonValue doc;
    std::string error;
    ASSERT_TRUE(api::parseJson(os.str(), doc, error)) << error;
    EXPECT_EQ(api::jsonString(doc, "schema"), "oma-run-report-v1");
    EXPECT_GT(api::jsonNumber(doc, "counters.icache/misses"), 0.0);
    EXPECT_GT(api::jsonNumber(doc, "counters.dcache/misses"), 0.0);
    EXPECT_GT(api::jsonNumber(doc, "counters.tlb/misses"), 0.0);
    EXPECT_NE(api::jsonAt(doc, "gauges.time_ms/sweep/replay"), nullptr);
    EXPECT_NE(api::jsonAt(doc, "gauges.time_ms/sweep/record"), nullptr);
    EXPECT_NE(
        api::jsonAt(doc, "histograms.icache/misses_per_config.buckets"),
        nullptr);
}

TEST(ObservedSearch, ObservationNeverChangesTheRanking)
{
    const ComponentSweep sweep = sweepUnderTest();
    std::vector<SweepResult> runs;
    runs.push_back(sweep.run(mab(), OsKind::Mach, runConfig(2)));
    const ComponentCpiTables tables = ComponentCpiTables::average(
        runs, MachineParams::decstation3100());
    const SearchSpace space(tables, AreaModel(), 250000.0);

    const auto plain = ExhaustiveStrategy().search(space, 4).allocations;
    obs::Observation observation;
    const auto observed =
        ExhaustiveStrategy().search(space, 4, &observation).allocations;

    ASSERT_EQ(plain.size(), observed.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(plain[i].tlb == observed[i].tlb) << i;
        ASSERT_TRUE(plain[i].icache == observed[i].icache) << i;
        ASSERT_TRUE(plain[i].dcache == observed[i].dcache) << i;
        ASSERT_TRUE(sameBits(plain[i].cpi, observed[i].cpi)) << i;
    }
    EXPECT_EQ(observation.metrics.counter("search/ranked"),
              plain.size());
    EXPECT_EQ(observation.metrics.counter("calls/search/exhaustive"), 1u);
    if (!plain.empty()) {
        EXPECT_TRUE(
            sameBits(observation.metrics.gauge("search/best_cpi"),
                     plain.front().cpi));
    }
}

} // namespace
} // namespace oma
