/**
 * @file
 * Serial-equivalence property tests for the parallel sweep/search
 * engine: for any thread count, ComponentSweep and the exhaustive
 * search must produce results bitwise identical to the serial path — same
 * counters, same CPI doubles, same ranking order, same tie-breaks.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "core/search_strategy.hh"
#include "core/sweep.hh"
#include "support/rng.hh"
#include "tests/core/sweep_equal.hh"

namespace oma
{
namespace
{

std::vector<CacheGeometry>
cacheSubset()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : {2, 8})
        for (std::uint64_t words : {1, 4})
            geoms.push_back(CacheGeometry::fromWords(kb * 1024, words, 1));
    geoms.push_back(CacheGeometry::fromWords(16 * 1024, 4, 2));
    return geoms;
}

std::vector<TlbGeometry>
tlbSubset()
{
    return {TlbGeometry::fullyAssoc(32), TlbGeometry::fullyAssoc(64),
            TlbGeometry(128, 2), TlbGeometry(256, 4)};
}

SweepResult
sweepWith(unsigned threads, BenchmarkId id, OsKind os,
          std::uint64_t seed, std::uint64_t refs)
{
    ComponentSweep sweep(cacheSubset(), cacheSubset(), tlbSubset());
    RunConfig rc;
    rc.references = refs;
    rc.seed = seed;
    rc.threads = threads;
    return sweep.run(benchmarkParams(id), os, rc);
}

TEST(ParallelSweep, MatchesSerialAcrossThreadCounts)
{
    const SweepResult serial =
        sweepWith(1, BenchmarkId::Mpeg, OsKind::Mach, 42, 120000);
    for (unsigned threads : {2u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        const SweepResult par =
            sweepWith(threads, BenchmarkId::Mpeg, OsKind::Mach, 42,
                      120000);
        expectSameSweep(serial, par);
    }
}

TEST(ParallelSweep, MatchesSerialAcrossRandomizedWorkloads)
{
    // Randomized workload/OS/seed draws; every draw must agree with
    // its serial twin. VM-activity-heavy runs exercise the recorded
    // invalidation-event replay ordering.
    Rng rng(0xd1fful);
    const BenchmarkId ids[] = {BenchmarkId::Mpeg, BenchmarkId::Mab,
                               BenchmarkId::IOzone};
    for (int draw = 0; draw < 3; ++draw) {
        const BenchmarkId id = ids[rng.below(3)];
        const OsKind os =
            rng.chance(0.5) ? OsKind::Mach : OsKind::Ultrix;
        const std::uint64_t seed = rng.next();
        const unsigned threads = 2 + unsigned(rng.below(7));
        SCOPED_TRACE(testing::Message()
                     << "draw " << draw << " threads " << threads
                     << " seed " << seed);
        const SweepResult serial = sweepWith(1, id, os, seed, 80000);
        const SweepResult par = sweepWith(threads, id, os, seed, 80000);
        expectSameSweep(serial, par);
    }
}

TEST(ParallelSweep, PipelinedQuestionMatchesPerTraceSweeps)
{
    // A three-workload question records each workload on the calling
    // lane while the pool replays the one before it. At any lane
    // count it equals, bitwise, sweeping each workload's own
    // recording, and it exports the same counters plus its three
    // recordings (the pool's shape aside).
    ::unsetenv("OMA_STORE_DIR");
    const ComponentSweep sweep(cacheSubset(), cacheSubset(), tlbSubset());
    const std::vector<WorkloadParams> workloads = {
        benchmarkParams(BenchmarkId::Mpeg),
        benchmarkParams(BenchmarkId::Mab),
        benchmarkParams(BenchmarkId::IOzone)};
    const auto comparable = [](const obs::MetricRegistry &m) {
        std::map<std::string, std::uint64_t> counters;
        for (const auto &[name, value] : m.counters())
            if (name.rfind("threadpool/", 0) != 0)
                counters[name] = value;
        return counters;
    };
    RunConfig rc;
    rc.references = 60000;
    rc.seed = 9;
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        rc.threads = threads;
        obs::Observation question;
        const std::vector<SweepResult> results =
            sweep.run(workloads, OsKind::Mach, rc, question);
        ASSERT_EQ(results.size(), workloads.size());
        obs::Observation per_trace;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            SCOPED_TRACE(workloads[w].name);
            const RecordedTrace trace =
                System(workloads[w], OsKind::Mach, rc.seed)
                    .record(rc.references);
            expectSameSweep(sweep.run(trace, threads, per_trace),
                            results[w]);
        }
        per_trace.metrics.add("sweep/records", workloads.size());
        per_trace.metrics.add("calls/sweep/record", workloads.size());
        EXPECT_EQ(comparable(question.metrics),
                  comparable(per_trace.metrics));
    }
}

/** Synthetic component tables over the full Table 5 grid; CPI values
 * engineered to contain exact ties so tie-break order is exercised. */
ComponentCpiTables
syntheticGridTables()
{
    ConfigSpace space;
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    tables.tlbCpi.resize(tables.tlbGeoms.size());
    for (std::size_t i = 0; i < tables.tlbCpi.size(); ++i)
        tables.tlbCpi[i] = 0.01 * double(i % 5); // deliberate ties
    tables.icacheCpi.resize(tables.icacheGeoms.size());
    for (std::size_t i = 0; i < tables.icacheCpi.size(); ++i)
        tables.icacheCpi[i] = 0.02 * double(i % 7);
    tables.dcacheCpi.resize(tables.dcacheGeoms.size());
    for (std::size_t i = 0; i < tables.dcacheCpi.size(); ++i)
        tables.dcacheCpi[i] = 0.015 * double(i % 6);
    return tables;
}

TEST(ParallelSearch, RankMatchesSerialOnTable5Grid)
{
    const ExhaustiveStrategy exhaustive;
    const ComponentCpiTables tables = syntheticGridTables();
    for (std::uint64_t max_ways : {8u, 2u}) {
        const SearchSpace space(tables, AreaModel(), 250000.0, max_ways);
        const auto serial = exhaustive.search(space, 1).allocations;
        ASSERT_FALSE(serial.empty());
        for (unsigned threads : {2u, 4u, 8u}) {
            SCOPED_TRACE(testing::Message() << "ways " << max_ways
                                            << " threads " << threads);
            const auto par =
                exhaustive.search(space, threads).allocations;
            expectSameAllocations(serial, par);
        }
    }
}

TEST(ParallelSearch, RankMatchesSerialOnMeasuredTables)
{
    // End-to-end: measured sweep -> averaged tables -> ranked grid,
    // comparing the fully serial pipeline against the fully parallel
    // one on a grid subset.
    const MachineParams mp = MachineParams::decstation3100();
    std::vector<SweepResult> serial_runs, par_runs;
    serial_runs.push_back(
        sweepWith(1, BenchmarkId::Mpeg, OsKind::Mach, 7, 60000));
    serial_runs.push_back(
        sweepWith(1, BenchmarkId::Mab, OsKind::Mach, 7, 60000));
    par_runs.push_back(
        sweepWith(4, BenchmarkId::Mpeg, OsKind::Mach, 7, 60000));
    par_runs.push_back(
        sweepWith(4, BenchmarkId::Mab, OsKind::Mach, 7, 60000));

    const auto serial_tables =
        ComponentCpiTables::average(serial_runs, mp);
    const auto par_tables = ComponentCpiTables::average(par_runs, mp);

    const SearchSpace serial_space(serial_tables, AreaModel(), 250000.0);
    const SearchSpace par_space(par_tables, AreaModel(), 250000.0);
    const auto serial =
        ExhaustiveStrategy().search(serial_space, 1).allocations;
    const auto par = ExhaustiveStrategy().search(par_space, 4).allocations;
    ASSERT_FALSE(serial.empty());
    expectSameAllocations(serial, par);
}

} // namespace
} // namespace oma
