/**
 * @file
 * Differential harness for the replayable-component concept
 * (core/component.hh): for every component kind — I-cache, D-cache,
 * TLB, victim cache, write buffer, hierarchy — the chunked
 * replayComponent() path must be bitwise-identical to the scalar
 * replayComponentScalar() path, on recorded System traces and on
 * synthetic traces with events pinned at chunk seams. End to end, a
 * heterogeneous ComponentSweep must be thread-count invariant and a
 * warm artifact-store rerun must reproduce the cold run for every
 * kind. Also pins the component kind names (store keys and metric
 * prefixes depend on them) and the counters codec's kind framing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/component.hh"
#include "core/sweep.hh"
#include "support/rng.hh"
#include "tlb/mips_va.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

/** Byte-exact counters comparison through the store encoding: the
 * codec serializes every field of every alternative, so encoded
 * equality is field-for-field equality. */
void
expectSameCounters(const ComponentCounters &a,
                   const ComponentCounters &b)
{
    ASSERT_EQ(a.index(), b.index());
    EXPECT_EQ(encodeComponentCounters(a), encodeComponentCounters(b));
}

/** One slot of every kind, shaped so each exercises its filter:
 * small enough to miss, set-associative and direct-mapped, an L2
 * that actually captures traffic. */
std::vector<ComponentSlot>
allKindSlots()
{
    std::vector<ComponentSlot> slots;
    CacheParams cache;
    cache.geom = CacheGeometry::fromWords(8 * 1024, 4, 2);
    slots.push_back(ComponentSlot::icache(cache));
    slots.push_back(ComponentSlot::dcache(cache));
    TlbParams tlb;
    tlb.geom = TlbGeometry(64, 2);
    slots.push_back(ComponentSlot::tlb(tlb));
    VictimParams victim;
    victim.l1 = CacheGeometry::fromWords(4 * 1024, 4, 1);
    victim.entries = 4;
    slots.push_back(ComponentSlot::victim(victim));
    WriteBufferParams wb;
    wb.entries = 2;
    slots.push_back(ComponentSlot::writeBuffer(wb));
    HierarchyParams split;
    split.l1i.geom = CacheGeometry::fromWords(4 * 1024, 4, 2);
    split.l1d.geom = CacheGeometry::fromWords(2 * 1024, 4, 2);
    split.l2.geom = CacheGeometry::fromWords(16 * 1024, 8, 4);
    split.hasL2 = true;
    slots.push_back(ComponentSlot::hierarchy(split));
    HierarchyParams unified;
    unified.l1i.geom = CacheGeometry::fromWords(8 * 1024, 4, 2);
    unified.unified = true;
    slots.push_back(ComponentSlot::hierarchy(unified));
    return slots;
}

void
expectScalarMatchesChunked(const RecordedTrace &trace)
{
    const MachineParams mp = MachineParams::decstation3100();
    for (const ComponentSlot &slot : allKindSlots()) {
        SCOPED_TRACE(slot.describe());
        const auto chunked = makeComponent(slot, mp);
        const auto scalar = makeComponent(slot, mp);
        EXPECT_EQ(replayComponent(trace, *chunked), trace.size());
        EXPECT_EQ(replayComponentScalar(trace, *scalar),
                  trace.size());
        EXPECT_EQ(chunked->delivered(), scalar->delivered());
        expectSameCounters(scalar->counters(), chunked->counters());
    }
}

TEST(ComponentReplay, ScalarMatchesChunkedOnRecordedTraces)
{
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach}) {
        System system(benchmarkParams(BenchmarkId::Mpeg), os, 42);
        const RecordedTrace trace = system.record(90000);
        // Without invalidation events the TLB leg's event slicing is
        // proven only vacuously.
        ASSERT_FALSE(trace.events().empty());
        expectScalarMatchesChunked(trace);
    }
}

TEST(ComponentReplay, ScalarMatchesChunkedWithEventsAtChunkSeams)
{
    // Synthetic stream spanning chunk seams with an uneven tail;
    // events pinned before the first reference, at both sides of
    // every seam, and trailing past the end (must never fire).
    // Unconstrained vaddrs also exercise the kseg1 filters.
    Rng rng(17);
    RecordedTrace trace;
    const std::uint64_t n = 2 * RecordedTrace::chunkRefs + 137;
    trace.recordInvalidation(1, 0, false);
    for (std::uint64_t i = 0; i < n; ++i) {
        MemRef r;
        r.vaddr = rng.next() & 0xffffffff;
        r.paddr = rng.next() & 0x3fffffff;
        r.asid = std::uint32_t(rng.below(4));
        r.kind = static_cast<RefKind>(rng.below(3));
        r.mode = static_cast<Mode>(rng.below(2));
        r.mapped = rng.chance(0.8);
        const std::uint64_t c = RecordedTrace::chunkRefs;
        if (i % c == 0 || i % c == c - 1)
            trace.recordInvalidation(vpnOf(r.vaddr), r.asid,
                                     rng.chance(0.2));
        trace.append(r);
    }
    trace.recordInvalidation(1, 1, false); // trailing: must not fire
    expectScalarMatchesChunked(trace);
}

void
expectSameHeterogeneousResults(const SweepResult &a,
                               const SweepResult &b)
{
    ASSERT_EQ(a.componentCount(), b.componentCount());
    ASSERT_EQ(a.instructions, b.instructions);
    for (std::size_t i = 0; i < a.icacheCount(); ++i)
        expectSameCounters(ComponentCounters(a.icache(i).stats),
                           ComponentCounters(b.icache(i).stats));
    for (std::size_t i = 0; i < a.dcacheCount(); ++i)
        expectSameCounters(ComponentCounters(a.dcache(i).stats),
                           ComponentCounters(b.dcache(i).stats));
    for (std::size_t i = 0; i < a.tlbCount(); ++i)
        expectSameCounters(ComponentCounters(a.tlb(i).stats),
                           ComponentCounters(b.tlb(i).stats));
    for (std::size_t i = 0; i < a.victimCount(); ++i)
        expectSameCounters(ComponentCounters(a.victim(i).stats),
                           ComponentCounters(b.victim(i).stats));
    for (std::size_t i = 0; i < a.writeBufferCount(); ++i)
        expectSameCounters(
            ComponentCounters(a.writeBuffer(i).stats),
            ComponentCounters(b.writeBuffer(i).stats));
    for (std::size_t i = 0; i < a.hierarchyCount(); ++i)
        expectSameCounters(ComponentCounters(a.hierarchy(i).stats),
                           ComponentCounters(b.hierarchy(i).stats));
}

TEST(ComponentReplay, HeterogeneousSweepIsThreadCountInvariant)
{
    const ComponentSweep sweep(allKindSlots());
    System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, 42);
    const RecordedTrace trace = system.record(60000);
    const SweepResult serial = sweep.run(trace, 1);
    expectSameHeterogeneousResults(serial, sweep.run(trace, 4));

    // And against the component-level scalar replays: the sweep adds
    // nothing beyond per-slot replayComponent().
    ASSERT_EQ(serial.victimCount(), 1u);
    ASSERT_EQ(serial.writeBufferCount(), 1u);
    ASSERT_EQ(serial.hierarchyCount(), 2u);
    const MachineParams mp = MachineParams::decstation3100();
    const std::vector<ComponentSlot> slots = allKindSlots();
    for (std::size_t s = 0; s < slots.size(); ++s) {
        SCOPED_TRACE(slots[s].describe());
        const auto scalar = makeComponent(slots[s], mp);
        EXPECT_EQ(replayComponentScalar(trace, *scalar),
                  trace.size());
        const ComponentCounters expected = scalar->counters();
        switch (slots[s].kind) {
          case ComponentKind::ICache:
            expectSameCounters(
                expected, ComponentCounters(serial.icache(0).stats));
            break;
          case ComponentKind::DCache:
            expectSameCounters(
                expected, ComponentCounters(serial.dcache(0).stats));
            break;
          case ComponentKind::Tlb:
            expectSameCounters(
                expected, ComponentCounters(serial.tlb(0).stats));
            break;
          case ComponentKind::Victim:
            expectSameCounters(
                expected, ComponentCounters(serial.victim(0).stats));
            break;
          case ComponentKind::WriteBuffer:
            expectSameCounters(
                expected,
                ComponentCounters(serial.writeBuffer(0).stats));
            break;
          case ComponentKind::Hierarchy:
            expectSameCounters(
                expected,
                ComponentCounters(
                    serial.hierarchy(s == slots.size() - 1 ? 1 : 0)
                        .stats));
            break;
        }
    }
}

TEST(ComponentReplay, WarmStoreReproducesColdForEveryKind)
{
    // Cold run simulates live and persists one shard per component;
    // the warm rerun must decode every extension kind's shard (zero
    // store misses) and reproduce the cold counters bitwise, at a
    // different thread count.
    ComponentSweep sweep(
        {CacheGeometry::fromWords(4 * 1024, 4, 2)},
        {CacheGeometry::fromWords(4 * 1024, 4, 2)},
        {TlbGeometry::fullyAssoc(32)});
    for (const ComponentSlot &slot : allKindSlots())
        sweep.addComponent(slot);

    RunConfig rc;
    rc.references = 50000;
    rc.seed = 42;
    rc.threads = 1;
    ::unsetenv("OMA_STORE_DIR");
    rc.storeDir = testing::TempDir() + "/oma_component_store." +
        std::to_string(::getpid());
    std::filesystem::remove_all(rc.storeDir);

    const WorkloadParams &mpeg = benchmarkParams(BenchmarkId::Mpeg);
    const SweepResult cold = sweep.run(mpeg, OsKind::Mach, rc);
    rc.threads = 4;
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(mpeg, OsKind::Mach, rc, &warm_obs);
    expectSameHeterogeneousResults(cold, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
    std::filesystem::remove_all(rc.storeDir);
}

TEST(ComponentReplay, KindNamesArePinned)
{
    // Store keys and metric prefixes embed these names; changing one
    // orphans stored shards and breaks the run-report counter gate.
    EXPECT_STREQ(componentKindName(ComponentKind::ICache), "icache");
    EXPECT_STREQ(componentKindName(ComponentKind::DCache), "dcache");
    EXPECT_STREQ(componentKindName(ComponentKind::Tlb), "tlb");
    EXPECT_STREQ(componentKindName(ComponentKind::Victim), "victim");
    EXPECT_STREQ(componentKindName(ComponentKind::WriteBuffer),
                 "wbuffer");
    EXPECT_STREQ(componentKindName(ComponentKind::Hierarchy), "l2");
}

TEST(ComponentReplay, CountersCodecFramesByKind)
{
    VictimStats v;
    v.accesses = 100;
    v.l1Hits = 80;
    v.victimHits = 5;
    v.misses = 15;
    const std::string payload =
        encodeComponentCounters(ComponentCounters(v));

    ComponentCounters out;
    ASSERT_TRUE(decodeComponentCounters(payload,
                                        ComponentKind::Victim, out));
    expectSameCounters(ComponentCounters(v), out);

    // The payload carries no kind tag — the store key does — so a
    // payload of the wrong kind must fail the decoder's framing, not
    // silently misinterpret.
    EXPECT_FALSE(decodeComponentCounters(
        payload, ComponentKind::WriteBuffer, out));
    EXPECT_FALSE(decodeComponentCounters(
        payload.substr(0, payload.size() - 1),
        ComponentKind::Victim, out));
}

} // namespace
} // namespace oma
