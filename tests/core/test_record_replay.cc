/**
 * @file
 * Property tests for the unified record-then-replay pipeline: a live
 * ComponentSweep::run(workload, os, run) and a replay of the
 * in-memory RecordedTrace the same System produces must yield the
 * same SweepResult — counter-for-counter and bit-for-bit in the
 * derived doubles — for every geometry, OS personality and thread
 * count.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/sweep.hh"
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
        for (std::uint64_t words : {1, 4})
            geoms.push_back(
                CacheGeometry::fromWords(kb * 1024, words, 1));
    geoms.push_back(CacheGeometry::fromWords(16 * 1024, 4, 2));
    return geoms;
}

std::vector<TlbGeometry>
tlbSubset()
{
    return {TlbGeometry::fullyAssoc(32), TlbGeometry::fullyAssoc(64),
            TlbGeometry(128, 2), TlbGeometry(256, 4)};
}

class RecordReplay : public testing::TestWithParam<OsKind>
{
};

TEST_P(RecordReplay, LiveAndRecordedSweepsAgree)
{
    const OsKind os = GetParam();
    const std::uint64_t refs = 90000, seed = 42;
    const ComponentSweep sweep(cacheSubset(), cacheSubset(),
                               tlbSubset());

    // Path 1: the all-in-one entry point (records internally).
    RunConfig rc;
    rc.references = refs;
    rc.seed = seed;
    rc.threads = 1;
    const SweepResult live =
        sweep.run(benchmarkParams(BenchmarkId::Mpeg), os, rc);

    // Path 2: an explicit recording of the identical stream.
    System system(benchmarkParams(BenchmarkId::Mpeg), os, seed);
    const RecordedTrace trace = system.record(refs);
    ASSERT_EQ(trace.size(), refs);

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        expectSameSweep(live, sweep.run(trace, threads));
    }
}

TEST_P(RecordReplay, LiveHookMmusMatchSweptTlbSlots)
{
    // The oracle is a live TLB bank: one Mmu per configuration, fed
    // System::next, with each OS page invalidation delivered through
    // the hook the moment it fires. The sweep's TLB slots replay one
    // recording with those invalidations pinned in place. Every
    // counter must match, as must the instruction count the TLB
    // figures divide by. A pin one reference late moves no counter on
    // these streams (the OS fires its invalidations as a step starts,
    // on pages the step's first reference does not touch), so the pins
    // themselves are held to the hook's positions too.
    const OsKind os = GetParam();
    const std::uint64_t refs = 90000, seed = 42;
    std::vector<TlbParams> configs;
    for (const TlbGeometry &geom : tlbSubset()) {
        TlbParams p;
        p.geom = geom;
        configs.push_back(p);
    }
    TlbParams flushing;
    flushing.geom = TlbGeometry::fullyAssoc(64);
    flushing.flushOnAsidSwitch = true;
    configs.push_back(flushing);

    std::vector<Mmu> live;
    for (const TlbParams &p : configs)
        live.emplace_back(p, MachineParams::decstation3100().tlbPenalties);
    System system(benchmarkParams(BenchmarkId::Mpeg), os, seed);
    std::vector<TraceEvent> fired;
    std::uint64_t index = 0;
    system.setInvalidateHook(
        [&](std::uint64_t vpn, std::uint32_t asid, bool global) {
            fired.push_back({index, vpn, asid, global});
            for (Mmu &mmu : live)
                mmu.invalidatePage(vpn, asid, global);
        });
    MemRef ref;
    std::uint64_t fetches = 0;
    for (; index < refs; ++index) {
        system.next(ref);
        fetches += ref.isFetch();
        for (Mmu &mmu : live)
            mmu.translate(ref);
    }

    const std::vector<TraceEvent> pinned =
        System(benchmarkParams(BenchmarkId::Mpeg), os, seed)
            .record(refs)
            .events();
    ASSERT_FALSE(fired.empty());
    ASSERT_EQ(pinned.size(), fired.size());
    for (std::size_t e = 0; e < fired.size(); ++e) {
        EXPECT_EQ(pinned[e].index, fired[e].index) << "event " << e;
        EXPECT_EQ(pinned[e].vpn, fired[e].vpn) << "event " << e;
        EXPECT_EQ(pinned[e].asid, fired[e].asid) << "event " << e;
        EXPECT_EQ(pinned[e].global, fired[e].global) << "event " << e;
    }

    std::vector<ComponentSlot> slots;
    for (const TlbParams &p : configs)
        slots.push_back(ComponentSlot::tlb(p));
    const ComponentSweep sweep(slots);
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        RunConfig rc;
        rc.references = refs;
        rc.seed = seed;
        rc.threads = threads;
        const SweepResult swept =
            sweep.run(benchmarkParams(BenchmarkId::Mpeg), os, rc);
        EXPECT_EQ(swept.instructions, fetches);
        ASSERT_EQ(swept.tlbCount(), live.size());
        for (std::size_t i = 0; i < live.size(); ++i)
            EXPECT_TRUE(encodeComponentCounters(live[i].stats()) ==
                        encodeComponentCounters(swept.tlb(i).stats))
                << "tlb " << i;
    }
}

TEST_P(RecordReplay, RecordingCarriesInvalidationEvents)
{
    // Both OS personalities generate VM activity within the first
    // 90k references; a recording with no events would mean the
    // inline-event plumbing silently dropped them (and the TLB
    // equivalence above would only pass vacuously).
    System system(benchmarkParams(BenchmarkId::Mpeg), GetParam(), 42);
    const RecordedTrace trace = system.record(90000);
    EXPECT_FALSE(trace.events().empty());
    EXPECT_GT(trace.otherCpi(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothOsKinds, RecordReplay,
                         testing::Values(OsKind::Ultrix, OsKind::Mach),
                         [](const auto &info) {
                             return info.param == OsKind::Mach
                                 ? "Mach"
                                 : "Ultrix";
                         });

} // namespace
} // namespace oma
