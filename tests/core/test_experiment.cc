/**
 * @file
 * Tests of the baseline experiment driver — including the paper's
 * headline qualitative results (Table 3 / Table 4 shapes).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace oma
{
namespace
{

RunConfig
shortRun()
{
    RunConfig rc;
    rc.references = 400000;
    return rc;
}

TEST(Baseline, RunsAndAccountsReferences)
{
    const BaselineResult r =
        runBaseline(BenchmarkId::Mpeg, OsKind::Ultrix, shortRun());
    EXPECT_EQ(r.references, 400000u);
    EXPECT_GT(r.instructions, 200000u);
    EXPECT_GT(r.cpi.cpi, 1.0);
    EXPECT_LT(r.cpi.cpi, 6.0);
}

TEST(Baseline, UserOnlyIsAllUser)
{
    RunConfig rc = shortRun();
    rc.userOnly = true;
    const BaselineResult r =
        runBaseline(BenchmarkId::Mpeg, OsKind::Ultrix, rc);
    EXPECT_DOUBLE_EQ(r.userFraction, 1.0);
    EXPECT_DOUBLE_EQ(r.cpi.other,
                     benchmarkParams(BenchmarkId::Mpeg).userOtherCpi);
}

TEST(Baseline, UserOnlyUnderstatesCpi)
{
    // Table 3: omitting OS references understates the CPI.
    RunConfig rc = shortRun();
    const BaselineResult full =
        runBaseline(BenchmarkId::Mpeg, OsKind::Ultrix, rc);
    rc.userOnly = true;
    const BaselineResult user =
        runBaseline(BenchmarkId::Mpeg, OsKind::Ultrix, rc);
    EXPECT_LT(user.cpi.cpi, full.cpi.cpi);
}

TEST(Baseline, MachCpiExceedsUltrix)
{
    // The paper's central observation (Tables 3/4): same workload,
    // same hardware, higher CPI under the multiple-API system.
    for (BenchmarkId id : allBenchmarks()) {
        const BaselineResult u =
            runBaseline(id, OsKind::Ultrix, shortRun());
        const BaselineResult m =
            runBaseline(id, OsKind::Mach, shortRun());
        EXPECT_GT(m.cpi.cpi, u.cpi.cpi) << benchmarkName(id);
    }
}

TEST(Baseline, MachShiftsStallsToTlbAndIcache)
{
    // Table 4: under Mach the TLB and I-cache shares of stall time
    // rise and the D-cache share falls, for every workload.
    for (BenchmarkId id : allBenchmarks()) {
        const BaselineResult u =
            runBaseline(id, OsKind::Ultrix, shortRun());
        const BaselineResult m =
            runBaseline(id, OsKind::Mach, shortRun());
        const double u_stalls = u.cpi.stallTotal();
        const double m_stalls = m.cpi.stallTotal();
        EXPECT_GT(m.cpi.tlb / m_stalls, u.cpi.tlb / u_stalls)
            << benchmarkName(id);
        EXPECT_GT(m.cpi.icache / m_stalls, u.cpi.icache / u_stalls)
            << benchmarkName(id);
        EXPECT_LT(m.cpi.dcache / m_stalls, u.cpi.dcache / u_stalls)
            << benchmarkName(id);
    }
}

TEST(Baseline, MachRunsMoreKernelAndServerInstructions)
{
    const BaselineResult u =
        runBaseline(BenchmarkId::Ousterhout, OsKind::Ultrix,
                    shortRun());
    const BaselineResult m =
        runBaseline(BenchmarkId::Ousterhout, OsKind::Mach, shortRun());
    EXPECT_LT(m.userFraction, u.userFraction);
}

TEST(Baseline, DeterministicAcrossRuns)
{
    const BaselineResult a =
        runBaseline(BenchmarkId::Jpeg, OsKind::Mach, shortRun());
    const BaselineResult b =
        runBaseline(BenchmarkId::Jpeg, OsKind::Mach, shortRun());
    EXPECT_DOUBLE_EQ(a.cpi.cpi, b.cpi.cpi);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Baseline, CustomMachineParams)
{
    // A tiny I-cache must hurt: CPI rises versus the 64-KB baseline.
    MachineParams small = MachineParams::decstation3100();
    small.icache = CacheGeometry::fromWords(2 * 1024, 1, 1);
    const BaselineResult big = runBaseline(
        BenchmarkId::Mpeg, OsKind::Mach, shortRun());
    const BaselineResult tiny = runBaseline(
        BenchmarkId::Mpeg, OsKind::Mach, shortRun(), small);
    EXPECT_GT(tiny.cpi.icache, big.cpi.icache);
}

} // namespace
} // namespace oma
