/**
 * @file
 * Tests for component sweeps and the averaged CPI tables.
 */

#include <gtest/gtest.h>

#include "core/sweep.hh"

namespace oma
{
namespace
{

std::vector<CacheGeometry>
sizeLadder()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : {2, 8, 32})
        geoms.push_back(CacheGeometry::fromWords(kb * 1024, 4, 1));
    return geoms;
}

std::vector<TlbGeometry>
tlbLadder()
{
    return {TlbGeometry::fullyAssoc(32), TlbGeometry::fullyAssoc(64),
            TlbGeometry(256, 4)};
}

SweepResult
runSweep(OsKind os, std::uint64_t refs = 300000)
{
    ComponentSweep sweep(sizeLadder(), sizeLadder(), tlbLadder());
    RunConfig rc;
    rc.references = refs;
    return sweep.run(benchmarkParams(BenchmarkId::Mpeg), os, rc);
}

TEST(ComponentSweep, ShapesMatchConfiguration)
{
    const SweepResult r = runSweep(OsKind::Ultrix);
    EXPECT_EQ(r.icacheCount(), 3u);
    EXPECT_EQ(r.dcacheCount(), 3u);
    EXPECT_EQ(r.tlbCount(), 3u);
    EXPECT_EQ(r.references, 300000u);
    EXPECT_GT(r.instructions, 100000u);
}

TEST(ComponentSweep, MissRatiosFallWithCapacity)
{
    const SweepResult r = runSweep(OsKind::Mach);
    EXPECT_GT(r.icache(0).missRatio(), r.icache(1).missRatio());
    EXPECT_GT(r.icache(1).missRatio(), r.icache(2).missRatio());
    EXPECT_GT(r.dcache(0).missRatio(), r.dcache(2).missRatio());
}

TEST(ComponentSweep, CpiContributionMath)
{
    const SweepResult r = runSweep(OsKind::Ultrix);
    const MachineParams mp = MachineParams::decstation3100();
    // icache CPI = misses x penalty / instructions.
    const double expected = double(r.icache(1).stats.totalMisses()) *
        double(mp.missPenalty(r.icache(1).geom)) /
        double(r.instructions);
    EXPECT_DOUBLE_EQ(r.icache(1).cpi(mp), expected);
    EXPECT_GT(r.tlb(0).cpi(), 0.0);
    EXPECT_GE(r.tlb(0).cpi(), r.tlb(1).cpi()); // larger FA TLB: fewer cycles
}

TEST(ComponentSweep, DcacheStoresFreeOnlyOnOneWordLines)
{
    std::vector<CacheGeometry> narrow = {
        CacheGeometry::fromWords(8 * 1024, 1, 1)};
    std::vector<CacheGeometry> wide = {
        CacheGeometry::fromWords(8 * 1024, 4, 1)};
    ComponentSweep sweep(narrow, wide, tlbLadder());
    RunConfig rc;
    rc.references = 200000;
    const SweepResult r = sweep.run(benchmarkParams(BenchmarkId::IOzone),
                                    OsKind::Ultrix, rc);
    const MachineParams mp = MachineParams::decstation3100();
    // The 1-word D-config charges only load misses.
    const double d1 = double(r.dcache(0).stats.misses[unsigned(
                          RefKind::Load)]) *
        6.0 / double(r.instructions);
    // (the D-cache bank holds the "wide" list; dcache(0) uses it.)
    const double charged = r.dcache(0).cpi(mp);
    const double all_misses =
        double(r.dcache(0).stats.totalMisses()) * 9.0 /
        double(r.instructions);
    EXPECT_LE(charged, all_misses + 1e-12);
    (void)d1;
}

TEST(ComponentSweep, MachTlbServiceExceedsUltrix)
{
    const SweepResult u = runSweep(OsKind::Ultrix);
    const SweepResult m = runSweep(OsKind::Mach);
    EXPECT_GT(m.tlb(1).cpi(), u.tlb(1).cpi()); // 64-entry FA (the R2000)
}

TEST(ComponentCpiTables, AveragesAcrossWorkloads)
{
    ComponentSweep sweep(sizeLadder(), sizeLadder(), tlbLadder());
    RunConfig rc;
    rc.references = 150000;
    std::vector<SweepResult> results;
    for (const BenchmarkId id : {BenchmarkId::Mpeg, BenchmarkId::Mab})
        results.push_back(
            sweep.run(benchmarkParams(id), OsKind::Mach, rc));

    const MachineParams mp = MachineParams::decstation3100();
    const ComponentCpiTables tables =
        ComponentCpiTables::average(results, mp);
    ASSERT_EQ(tables.icacheCpi.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const double mean = 0.5 * (results[0].icache(i).cpi(mp) +
                                   results[1].icache(i).cpi(mp));
        EXPECT_NEAR(tables.icacheCpi[i], mean, 1e-12);
    }
    EXPECT_DOUBLE_EQ(tables.baseCpi, 1.0);
    const double wb = 0.5 * (results[0].wbCpi + results[1].wbCpi);
    EXPECT_NEAR(tables.wbCpi, wb, 1e-12);
}

TEST(ComponentCpiTablesDeath, EmptyAverageRejected)
{
    EXPECT_DEATH(ComponentCpiTables::average(
                     {}, MachineParams::decstation3100()),
                 "zero sweep");
}

TEST(SweepResultDeath, OutOfRangeViewIndexIsFatal)
{
    // The views are the only way into per-configuration data, and
    // every indexed accessor is bounds-checked: out-of-range indices
    // exit fatally instead of reading past the vectors (the old
    // surface's UB).
    const SweepResult r = runSweep(OsKind::Ultrix, 50000);
    const MachineParams mp = MachineParams::decstation3100();
    EXPECT_EXIT((void)r.icache(3), testing::ExitedWithCode(1),
                "SweepResult::icache\\(3\\)");
    EXPECT_EXIT((void)r.dcache(100), testing::ExitedWithCode(1),
                "SweepResult::dcache\\(100\\)");
    EXPECT_EXIT((void)r.tlb(3), testing::ExitedWithCode(1),
                "SweepResult::tlb\\(3\\)");
    EXPECT_EXIT((void)r.icache(3).cpi(mp), testing::ExitedWithCode(1),
                "only 3 configurations");
}

} // namespace
} // namespace oma
