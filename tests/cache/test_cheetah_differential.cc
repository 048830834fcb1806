/**
 * @file
 * Differential test: one Cheetah pass vs one component replay per
 * configuration, over the same recording.
 *
 * This is the correctness backstop of the sweep's cache engine:
 * ComponentSweep reports every I- and D-cache slot of one line size
 * from one Cheetah pass, so every CacheStats field the pass derives
 * must equal, bit for bit, what the slot's own Cache computes through
 * makeComponent + replayComponent.
 * The comparison runs through the store codec
 * (encodeComponentCounters serializes every field), over every Table 5
 * geometry on both streams of all six workloads under both OSes, over
 * randomized recordings far nastier than uniform noise — Zipf-skewed
 * working sets, strided streams, store bursts, kseg1 (uncached) data,
 * chunk seams and an uneven tail — and over edge shapes.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cheetah.hh"
#include "cache/replay.hh"
#include "core/component.hh"
#include "core/search.hh"
#include "support/rng.hh"
#include "tlb/mips_va.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

/** One pass over @p stream of @p trace reporting @p geoms must equal
 * each geometry's own component replay in every counter, and deliver
 * the same references. */
void
expectPassMatchesSlots(const RecordedTrace &trace, CacheStream stream,
                       const std::vector<CacheGeometry> &geoms)
{
    Cheetah pass(geoms);
    const std::uint64_t delivered =
        replayCacheStream(trace, stream, pass);
    for (const CacheGeometry &geom : geoms) {
        SCOPED_TRACE(geom.describe() +
                     (stream == CacheStream::Fetch ? " fetch" : " data"));
        EXPECT_EQ(pass.stats(geom).totalAccesses(), delivered);
        const ComponentSlot slot = stream == CacheStream::Fetch
            ? ComponentSlot::icache(geom)
            : ComponentSlot::dcache(geom);
        const std::unique_ptr<ComponentReplayer> component =
            makeComponent(slot, MachineParams::decstation3100());
        replayComponent(trace, *component);
        EXPECT_EQ(encodeComponentCounters(pass.stats(geom)),
                  encodeComponentCounters(component->counters()));
        EXPECT_EQ(component->delivered(), delivered);
    }
}

/** expectPassMatchesSlots on both streams. */
void
expectBothStreamsMatch(const RecordedTrace &trace,
                       const std::vector<CacheGeometry> &geoms)
{
    expectPassMatchesSlots(trace, CacheStream::Fetch, geoms);
    expectPassMatchesSlots(trace, CacheStream::Data, geoms);
}

/** Every power-of-two associativity up to @p max_ways at @p sets
 * sets of @p line bytes. */
std::vector<CacheGeometry>
waysColumn(std::uint64_t sets, std::uint64_t line, std::uint64_t max_ways)
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t ways = 1; ways <= max_ways; ways *= 2)
        geoms.emplace_back(sets * line * ways, line, ways);
    return geoms;
}

/** The Table 5 cache geometries, one group per line size: exactly
 * the groups the sweep replays as one pass each. */
std::map<std::uint64_t, std::vector<CacheGeometry>>
table5Groups()
{
    std::map<std::uint64_t, std::vector<CacheGeometry>> groups;
    for (const CacheGeometry &geom : ConfigSpace().cacheGeometries())
        groups[geom.lineBytes].push_back(geom);
    return groups;
}

MemRef
makeRef(std::uint64_t vaddr, std::uint64_t paddr, RefKind kind)
{
    MemRef ref;
    ref.vaddr = vaddr;
    ref.paddr = paddr;
    ref.kind = kind;
    return ref;
}

/**
 * Mixed synthetic recording of @p n references: sequential code
 * fetches with jumps, a Zipf hot data set, strided streaming, store
 * bursts to consecutive words, and kseg1 (uncached) data references
 * the data stream must drop.
 */
RecordedTrace
nastyTrace(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    RecordedTrace trace;
    std::uint64_t pc = 0x400000;
    std::uint64_t stream_pos = 0x200000;
    const auto data = [&](std::uint64_t paddr, RefKind kind) {
        trace.append(makeRef(paddr, paddr, kind));
    };
    while (trace.size() < n) {
        const double pick = rng.uniform();
        if (pick < 0.3) {
            // Straight-line code, sometimes a jump.
            if (rng.chance(0.05))
                pc = 0x400000 + rng.below(1 << 14) * 4;
            pc += 4;
            trace.append(makeRef(pc, pc, RefKind::IFetch));
        } else if (pick < 0.55) {
            // Hot working set, heavily skewed.
            const std::uint64_t word = rng.zipf(4096, 1.1);
            data(0x10000 + word * 4,
                 rng.chance(0.3) ? RefKind::Store : RefKind::Load);
        } else if (pick < 0.75) {
            // Sequential streaming with a fixed stride.
            stream_pos += 16;
            if (stream_pos > 0x280000)
                stream_pos = 0x200000;
            data(stream_pos, RefKind::Load);
        } else if (pick < 0.92) {
            // Store burst to consecutive words.
            const std::uint64_t base = 0x800000 + rng.below(1 << 14) * 4;
            const std::uint64_t burst = 1 + rng.below(8);
            for (std::uint64_t b = 0; b < burst && trace.size() < n; ++b)
                data(base + b * 4, RefKind::Store);
        } else {
            // Uncached device access: its physical line aliases the
            // hot set, so a filter slip would change the counters.
            const std::uint64_t word = rng.zipf(4096, 1.1);
            trace.append(makeRef(kseg1Base + word * 4,
                                 0x10000 + word * 4,
                                 rng.chance(0.5) ? RefKind::Store
                                                 : RefKind::Load));
        }
    }
    return trace;
}

/** A chunk seam plus an uneven tail. */
constexpr std::size_t nastyRefs = RecordedTrace::chunkRefs + 4097;

class CheetahDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CheetahDifferential, NastyTraceManyShapes)
{
    const RecordedTrace trace = nastyTrace(GetParam(), nastyRefs);
    expectBothStreamsMatch(trace, waysColumn(64, 16, 8));
    expectBothStreamsMatch(trace, waysColumn(16, 32, 4));
    expectBothStreamsMatch(trace, waysColumn(256, 4, 2));
    expectBothStreamsMatch(trace, waysColumn(1, 16, 16));
    for (const auto &[line, geoms] : table5Groups())
        expectBothStreamsMatch(trace, geoms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheetahDifferential,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST(CheetahDifferential, RealWorkloadDcacheStream)
{
    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Mach, 42);
    const RecordedTrace trace = system.record(300000);
    std::uint64_t data_refs = 0;
    trace.replayCachedData([&](std::uint64_t, RefKind) { ++data_refs; });
    ASSERT_GE(data_refs, 60000u);
    expectBothStreamsMatch(trace, waysColumn(128, 16, 8));
    expectBothStreamsMatch(trace, waysColumn(512, 4, 2));
}

TEST(CheetahDifferential, EveryTable5GeometryOnEveryWorkload)
{
    // Short recordings of every workload under both OSes; every
    // Table 5 geometry of both streams, one pass per line size.
    const auto groups = table5Groups();
    for (OsKind os : {OsKind::Mach, OsKind::Ultrix}) {
        for (BenchmarkId id : allBenchmarks()) {
            SCOPED_TRACE(std::string(benchmarkName(id)) + " " +
                         osKindName(os));
            System system(benchmarkParams(id), os, 7);
            const RecordedTrace trace = system.record(20000);
            for (const auto &[line, geoms] : groups)
                expectBothStreamsMatch(trace, geoms);
        }
    }
}

TEST(CheetahDifferential, StoreOnlyTraceStillMatches)
{
    // Write-allocate write-through stores allocate on miss exactly
    // like loads, so residency — and therefore the pass's counts —
    // must match for a pure store stream too.
    Rng rng(7);
    RecordedTrace trace;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t paddr = rng.below(1 << 16) & ~3ULL;
        trace.append(makeRef(paddr, paddr, RefKind::Store));
    }
    expectPassMatchesSlots(trace, CacheStream::Data,
                           waysColumn(32, 16, 4));
}

TEST(CheetahDifferential, EdgeShapes)
{
    const RecordedTrace trace = nastyTrace(505, nastyRefs);
    // A group with one member.
    expectBothStreamsMatch(trace, {CacheGeometry(8 * 1024, 16, 2)});
    // One set with 16 ways.
    expectBothStreamsMatch(trace, {CacheGeometry(16 * 32, 32, 16)});
    // Non-adjacent set counts (4, 64 and 1024 sets), out of order.
    expectBothStreamsMatch(trace, {CacheGeometry(1024 * 8, 8, 1),
                                   CacheGeometry(4 * 8 * 4, 8, 4),
                                   CacheGeometry(64 * 8 * 2, 8, 2),
                                   CacheGeometry(4 * 8, 8, 1)});

    // A stream that delivers no references: a fetch-only recording
    // has an empty data stream, and an empty recording has neither.
    RecordedTrace fetches;
    for (std::uint64_t pc = 0; pc < 4096; pc += 4)
        fetches.append(makeRef(pc, pc, RefKind::IFetch));
    expectBothStreamsMatch(fetches, table5Groups().begin()->second);
    const RecordedTrace empty;
    expectBothStreamsMatch(empty, waysColumn(64, 16, 8));
    Cheetah idle(waysColumn(64, 16, 8));
    EXPECT_EQ(replayCacheStream(fetches, CacheStream::Data, idle), 0u);
    EXPECT_EQ(idle.stats(CacheGeometry(64 * 16, 16, 1)).totalMisses(),
              0u);
    EXPECT_EQ(idle.compulsoryMisses(), 0u);
}

} // namespace
} // namespace oma
