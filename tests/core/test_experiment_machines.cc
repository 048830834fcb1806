/**
 * @file
 * Baseline-driver tests across machine variants: the knobs the
 * extension benches turn must move the right CPI component in the
 * right direction on real workload streams.
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
    rc.references = 300000;
    return rc;
}

TEST(MachineVariants, BiggerTlbShrinksTlbCpi)
{
    MachineParams big = MachineParams::decstation3100();
    big.tlb.geom = TlbGeometry(512, 8);
    const BaselineResult base =
        runBaseline(BenchmarkId::Mab, OsKind::Mach, shortRun());
    const BaselineResult with =
        runBaseline(BenchmarkId::Mab, OsKind::Mach, shortRun(), big);
    EXPECT_LT(with.cpi.tlb, base.cpi.tlb);
    EXPECT_LT(with.cpi.cpi, base.cpi.cpi);
}

TEST(MachineVariants, PrefetchShrinksIcacheCpiUnderMach)
{
    MachineParams pf = MachineParams::decstation3100();
    pf.iPrefetchNextLine = true;
    const BaselineResult base =
        runBaseline(BenchmarkId::Mpeg, OsKind::Mach, shortRun());
    const BaselineResult with =
        runBaseline(BenchmarkId::Mpeg, OsKind::Mach, shortRun(), pf);
    EXPECT_LT(with.cpi.icache, 0.8 * base.cpi.icache);
}

TEST(MachineVariants, FlushOnSwitchInflatesMachTlbCpi)
{
    MachineParams flush = MachineParams::decstation3100();
    flush.tlb.flushOnAsidSwitch = true;
    const BaselineResult base =
        runBaseline(BenchmarkId::Ousterhout, OsKind::Mach, shortRun());
    const BaselineResult with = runBaseline(
        BenchmarkId::Ousterhout, OsKind::Mach, shortRun(), flush);
    EXPECT_GT(with.cpi.tlb, 3.0 * base.cpi.tlb);
}

TEST(MachineVariants, LongerLinesCutMachIcacheMissesButCostPenalty)
{
    MachineParams wide = MachineParams::decstation3100();
    wide.icache = CacheGeometry::fromWords(64 * 1024, 8, 1);
    const BaselineResult base =
        runBaseline(BenchmarkId::Mpeg, OsKind::Mach, shortRun());
    const BaselineResult with = runBaseline(
        BenchmarkId::Mpeg, OsKind::Mach, shortRun(), wide);
    // Miss ratio falls strongly (sequential paths)...
    EXPECT_LT(with.icacheMissRatio, 0.5 * base.icacheMissRatio);
    // ...while CPI moves by less than the raw miss factor because
    // each miss now costs 13 cycles instead of 6.
    EXPECT_LT(with.cpi.icache, base.cpi.icache);
}

TEST(MachineVariants, SlowerMemoryScalesCacheStalls)
{
    MachineParams slow = MachineParams::decstation3100();
    slow.missFirstWord = 12;
    const BaselineResult base =
        runBaseline(BenchmarkId::IOzone, OsKind::Ultrix, shortRun());
    const BaselineResult with = runBaseline(
        BenchmarkId::IOzone, OsKind::Ultrix, shortRun(), slow);
    // Double the first-word penalty: D-cache stalls roughly double.
    EXPECT_GT(with.cpi.dcache, 1.7 * base.cpi.dcache);
    EXPECT_LT(with.cpi.dcache, 2.3 * base.cpi.dcache);
}

TEST(MachineVariants, DeeperWriteBufferShrinksWbCpi)
{
    MachineParams deep = MachineParams::decstation3100();
    deep.wbEntries = 16;
    MachineParams shallow = MachineParams::decstation3100();
    shallow.wbEntries = 1;
    const BaselineResult d = runBaseline(BenchmarkId::VideoPlay,
                                         OsKind::Ultrix, shortRun(),
                                         deep);
    const BaselineResult s = runBaseline(BenchmarkId::VideoPlay,
                                         OsKind::Ultrix, shortRun(),
                                         shallow);
    EXPECT_LT(d.cpi.writeBuffer, s.cpi.writeBuffer);
}

} // namespace
} // namespace oma
