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
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>

#include "api/query_engine.hh"
#include "core/search_strategy.hh"
#include "core/sweep.hh"
#include "machine/machine.hh"
#include "obs/export.hh"
#include "obs/report.hh"
#include "tests/api/json_path.hh"
#include "tests/core/sweep_equal.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

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

TEST(ObservedSweep, ObservationNeverChangesTheResultAt1And4Threads)
{
    // A sweep into a caller's observation and one into
    // Observation::none() produce bitwise-identical SweepResults at
    // 1 and at 4 threads.
    const ComponentSweep sweep = sweepUnderTest();
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const SweepResult plain =
            sweep.run(mab(), OsKind::Mach, runConfig(threads));
        obs::Observation observation;
        const SweepResult observed = sweep.run(
            mab(), OsKind::Mach, runConfig(threads), observation);
        expectSameSweep(plain, observed);
        EXPECT_FALSE(observation.metrics.empty());
    }
}

TEST(ObservedSweep, CountersAreThreadCountInvariant)
{
    // Event counters are summed over each kind's finished slots in
    // task order after the parallel phase, so they are a function of
    // the work alone. Pool-shape metrics (threadpool/*) and
    // wall-clock gauges are configuration and timing respectively,
    // and are excluded by contract.
    const ComponentSweep sweep = sweepUnderTest();
    obs::Observation serial, parallel;
    (void)sweep.run(mab(), OsKind::Mach, runConfig(1), serial);
    (void)sweep.run(mab(), OsKind::Mach, runConfig(4), parallel);
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
        sweep.run(mab(), OsKind::Mach, runConfig(2), observation);
    const obs::MetricRegistry &m = observation.metrics;
    std::uint64_t icache_misses = 0, dcache_misses = 0, tlb_refills = 0;
    for (std::size_t i = 0; i < r.icacheCount(); ++i)
        icache_misses += r.icache(i).stats.totalMisses();
    for (std::size_t i = 0; i < r.dcacheCount(); ++i)
        dcache_misses += r.dcache(i).stats.totalMisses();
    for (std::size_t i = 0; i < r.tlbCount(); ++i)
        tlb_refills += r.tlb(i).stats.refillCycles();
    EXPECT_EQ(m.counter("icache/misses"), icache_misses);
    EXPECT_EQ(m.counter("dcache/misses"), dcache_misses);
    EXPECT_EQ(m.counter("tlb/refill_cycles"), tlb_refills);
    EXPECT_EQ(m.counter("machine/instructions"), r.instructions);
    EXPECT_EQ(m.counter("trace/references"), r.references);
    EXPECT_EQ(m.counter("sweep/replays"), 1u);
    // Both phases timed exactly once.
    EXPECT_EQ(m.counter("calls/sweep/record"), 1u);
    EXPECT_EQ(m.counter("calls/sweep/replay"), 1u);
    EXPECT_GE(m.gauge("time_ms/sweep/replay"), 0.0);
}

TEST(ObservedSweep, ExportedCountersSumEachKind)
{
    // A grid of all six kinds. The sweep sums each kind's counters
    // and exports the sum once; that must equal every slot's typed
    // view exported on its own, summed by the registry. The machine
    // counters must equal a reference machine replaying the same
    // recording, and replay/cache_passes one pass per (stream, line
    // size), since every cache slot replays in a pass.
    // The names are pinned to a literal list, so renaming an entry of
    // a record's counter list fails here.
    ComponentSweep sweep = sweepUnderTest();
    for (const ComponentSlot &slot :
         ConfigSpace::extended().extensionSlots())
        sweep.addComponent(slot);
    RunConfig rc = runConfig(4);
    rc.references = 30000;
    obs::Observation observation;
    const SweepResult r = sweep.run(mab(), OsKind::Mach, rc, observation);

    obs::MetricRegistry want;
    for (const ComponentKind kind : allComponentKinds) {
        ASSERT_GT(sweptCount(r, kind), 0u) << componentKindName(kind);
        for (std::size_t i = 0; i < sweptCount(r, kind); ++i)
            std::visit(
                [&](const auto &s) {
                    obs::exportCounters(want, componentKindName(kind), s);
                },
                sweptCounters(r, kind, i));
    }
    std::set<std::pair<bool, std::uint64_t>> passes;
    for (std::size_t i = 0; i < r.icacheCount(); ++i)
        passes.insert({true, r.icache(i).geom.lineBytes});
    for (std::size_t i = 0; i < r.dcacheCount(); ++i)
        passes.insert({false, r.dcache(i).geom.lineBytes});
    want.add("replay/cache_passes", passes.size());

    Machine machine(MachineParams::decstation3100());
    System(mab(), OsKind::Mach, rc.seed)
        .record(rc.references)
        .replay([&](const MemRef &ref) { machine.observe(ref); },
                [&](const TraceEvent &e) {
                    machine.mmu().invalidatePage(e.vpn, e.asid,
                                                 e.global);
                });
    obs::exportStallCounters(want, "machine", machine.stalls());
    obs::exportWriteBufferCounters(want, "wb",
                                   machine.writeBuffer().stores(),
                                   machine.writeBuffer().stallCycles());

    const obs::MetricRegistry &m = observation.metrics;
    for (const auto &[name, value] : want.counters())
        EXPECT_EQ(m.counter(name), value) << name;
    // And nothing under these prefixes beyond what was summed.
    const std::set<std::string> summed = {"icache/", "dcache/", "tlb/",
                                          "victim/", "wbuffer/", "l2/",
                                          "machine/", "wb/"};
    for (const auto &[name, value] : m.counters()) {
        if (summed.count(name.substr(0, name.find('/') + 1)) != 0) {
            EXPECT_EQ(want.counters().count(name), 1u) << name;
        }
    }
    std::set<std::string> names;
    for (const auto &[name, value] : want.counters())
        names.insert(name);
    std::set<std::string> pinned = {"replay/cache_passes"};
    const auto pin = [&pinned](const std::string &prefix,
                               std::initializer_list<const char *> list) {
        for (const char *name : list)
            pinned.insert(prefix + "/" + name);
    };
    for (const char *cache : {"icache", "dcache"})
        pin(cache, {"accesses", "misses", "compulsory_misses"});
    pin("tlb", {"translations", "misses", "service_cycles",
                "refill_cycles", "asid_flushes"});
    pin("victim", {"accesses", "l1_hits", "victim_hits", "misses"});
    pin("wbuffer", {"instructions", "stores", "stall_cycles"});
    pin("l2", {"instructions", "data_refs", "l1_misses", "l2_hits",
               "l2_misses", "port_conflicts", "stall_cycles"});
    pin("machine", {"instructions", "icache_stall", "dcache_stall",
                    "wb_stall", "tlb_stall"});
    pin("wb", {"stores", "stall_cycles"});
    EXPECT_EQ(pinned.size(), 33u);
    EXPECT_EQ(names, pinned);
}

TEST(ObservedSweep, UnobservedSweepsOnTwoThreadsMatch)
{
    // Two threads sweep at once with no observation. Each records
    // into its own thread's Observation::none(), so the two never
    // share a registry (the TSan job runs this), and both results
    // equal a serial observed run.
    ::unsetenv("OMA_STORE_DIR");
    const api::QueryEngine engine;
    api::AllocationRequest request;
    request.workloads = {BenchmarkId::Mab, BenchmarkId::Mpeg};
    request.references = 30000;
    request.space.cacheKBytes = {2, 8};
    request.space.lineWords = {4};
    request.space.cacheWays = {1, 2};
    request.space.tlbEntries = {64};
    request.space.tlbWays = {1, 2};
    request.threads = 1;
    obs::Observation observation;
    const std::vector<SweepResult> serial =
        engine.sweep(request, &observation);
    EXPECT_FALSE(observation.metrics.empty());

    request.threads = 2;
    std::vector<SweepResult> first, second;
    std::thread a([&] { first = engine.sweep(request); });
    std::thread b([&] { second = engine.sweep(request); });
    a.join();
    b.join();
    ASSERT_EQ(first.size(), serial.size());
    ASSERT_EQ(second.size(), serial.size());
    for (std::size_t w = 0; w < serial.size(); ++w) {
        SCOPED_TRACE(w);
        expectSameSweep(serial[w], first[w]);
        expectSameSweep(serial[w], second[w]);
    }
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
    (void)sweep.run(mab(), OsKind::Mach, runConfig(4), observation);
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
        sweep.run(mab(), OsKind::Mach, runConfig(2), observation);
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
        ExhaustiveStrategy().search(space, 4, observation).allocations;

    expectSameAllocations(plain, observed);
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
