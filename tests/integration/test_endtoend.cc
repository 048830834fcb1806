/**
 * @file
 * Integration tests across the whole stack: measured sweeps feeding
 * the allocation search, and trace sampling validation.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "core/search_strategy.hh"
#include "trace/sampler.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

TEST(EndToEnd, MeasuredSearchPicksLargeTlbUnderMach)
{
    // Miniature version of the Table 6 pipeline: sweep a reduced
    // grid on one workload under Mach and rank under the budget. The
    // paper's qualitative conclusions must hold: the best
    // configurations use large set-associative TLBs, and the I-cache
    // gets at least as much capacity as the D-cache.
    ConfigSpace space;
    space.cacheKBytes = {4, 8, 16, 32};
    space.lineWords = {4, 8, 16};
    space.cacheWays = {1, 2};
    space.tlbEntries = {64, 512};

    const auto caches = space.cacheGeometries(2);
    ComponentSweep sweep(caches, caches, space.tlbGeometries());
    RunConfig rc;
    rc.references = 600000;
    std::vector<SweepResult> results;
    // mpeg_play and mab: the display and compile workloads whose
    // Mach profiles are I-cache heavy (Table 4).
    for (const BenchmarkId id : {BenchmarkId::Mpeg, BenchmarkId::Mab})
        results.push_back(
            sweep.run(benchmarkParams(id), OsKind::Mach, rc));

    const MachineParams mp = MachineParams::decstation3100();
    const ComponentCpiTables tables =
        ComponentCpiTables::average(results, mp);

    const SearchSpace search_space(tables, AreaModel(), 250000.0, 2);
    const auto ranked =
        ExhaustiveStrategy().search(search_space).allocations;
    ASSERT_GT(ranked.size(), 100u);

    const Allocation &best = ranked.front();
    EXPECT_EQ(best.tlb.entries, 512u);
    EXPECT_LT(best.cpi, ranked.back().cpi);
    // The near-optimal set leans toward I-cache capacity: within the
    // top ten, allocations with I-cache >= D-cache must appear (our
    // synthetic workloads put somewhat more capacity-sensitive
    // pressure on the D-cache than the paper's traces, so the exact
    // rank-1 split can differ; see EXPERIMENTS.md).
    bool icache_favoured = false;
    for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
        icache_favoured |= ranked[i].icache.capacityBytes >=
            ranked[i].dcache.capacityBytes;
    }
    EXPECT_TRUE(icache_favoured);
}

TEST(EndToEnd, SampledMissRatioTracksFullSimulation)
{
    // The paper validates trace sampling against full traces with
    // error under 10%; reproduce that methodology on our own
    // generator: simulate a cache over the full stream and over
    // sampled windows and compare miss-ratio estimators.
    const WorkloadParams &wl = benchmarkParams(BenchmarkId::Mpeg);

    const CacheGeometry geom = CacheGeometry::fromWords(16 * 1024, 4, 1);

    // Full simulation.
    System full(wl, OsKind::Mach, 77);
    Cache full_cache(geom);
    MemRef r;
    for (int i = 0; i < 1500000; ++i) {
        full.next(r);
        if (r.isFetch())
            full_cache.access(r.paddr, r.kind);
    }

    // Sampled simulation over an identical (same-seed) stream.
    System stream(wl, OsKind::Mach, 77);
    SamplerParams sp;
    sp.sampleCount = 50;
    sp.sampleLength = 8000;
    sp.meanGap = 22000;
    TraceSampler sampler(stream, sp);
    Cache sampled_cache(geom);
    std::uint64_t consumed = 0;
    while (consumed < 1500000 && sampler.next(r)) {
        ++consumed;
        if (r.isFetch())
            sampled_cache.access(r.paddr, r.kind);
    }

    const double full_ratio =
        full_cache.stats().missRatio(RefKind::IFetch);
    const double sampled_ratio =
        sampled_cache.stats().missRatio(RefKind::IFetch);
    ASSERT_GT(full_ratio, 0.0);
    EXPECT_NEAR(sampled_ratio, full_ratio, 0.35 * full_ratio);
}

TEST(EndToEnd, LargerBudgetNeverHurtsTheOptimum)
{
    // Cost/benefit sanity across the whole pipeline: widening the
    // area budget can only improve (or preserve) the best CPI.
    ConfigSpace space;
    space.cacheKBytes = {2, 8, 32};
    space.lineWords = {4, 8};
    space.cacheWays = {1, 2};
    const auto caches = space.cacheGeometries(2);
    ComponentSweep sweep(caches, caches, space.tlbGeometries());
    RunConfig rc;
    rc.references = 300000;
    const std::vector<SweepResult> results = {
        sweep.run(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, rc)};
    const ComponentCpiTables tables = ComponentCpiTables::average(
        results, MachineParams::decstation3100());

    double prev_best = 1e9;
    for (double budget : {80000.0, 150000.0, 250000.0, 400000.0}) {
        const SearchSpace search_space(tables, AreaModel(), budget, 2);
        const auto ranked =
            ExhaustiveStrategy().search(search_space).allocations;
        ASSERT_FALSE(ranked.empty()) << budget;
        EXPECT_LE(ranked.front().cpi, prev_best + 1e-12) << budget;
        prev_best = ranked.front().cpi;
    }
}

} // namespace
} // namespace oma
