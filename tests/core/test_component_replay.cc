/**
 * @file
 * Differential suite for the replayable components (core/component.hh):
 * for every component kind — I- and D-caches of every shape, TLBs,
 * victim caches, write buffers, split and unified hierarchies —
 * makeComponent + replayComponent must be bitwise identical to an
 * oracle that drives the raw simulator one reference at a time
 * through RecordedTrace's per-reference views. The inputs are
 * recorded Ultrix and Mach System traces, randomized traces with
 * kseg1 data, and traces with invalidations at chunk seams and past
 * the end. End to end, ComponentSweep must match the oracle at 1 and
 * 4 threads and when it reloads every shard from a warm artifact
 * store. Also pins the component kind names (store keys and metric
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
#include "tests/core/sweep_equal.hh"
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

// ----- the oracle -----

/** What the oracle measured for one slot. */
struct OracleReplay
{
    ComponentCounters counters;
    std::uint64_t delivered = 0;
};

/**
 * The reference path: @p slot's raw simulator driven one reference at
 * a time through RecordedTrace's views, with invalidation events
 * interleaved by RecordedTrace::replay — no chunking, compaction or
 * event slicing. The hierarchy's stream is written out here rather
 * than taken from inCacheStream: every fetch, plus loads and stores
 * outside kseg1.
 */
OracleReplay
oracleReplay(const RecordedTrace &trace, const ComponentSlot &slot)
{
    const MachineParams mp = MachineParams::decstation3100();
    OracleReplay out;
    std::uint64_t &delivered = out.delivered;
    switch (slot.kind) {
      case ComponentKind::ICache: {
        Cache cache(std::get<CacheGeometry>(slot.params));
        trace.replayFetchPaddrs([&](std::uint64_t paddr) {
            cache.access(paddr, RefKind::IFetch);
            ++delivered;
        });
        out.counters = cache.stats();
        break;
      }
      case ComponentKind::DCache: {
        Cache cache(std::get<CacheGeometry>(slot.params));
        trace.replayCachedData([&](std::uint64_t paddr, RefKind kind) {
            cache.access(paddr, kind);
            ++delivered;
        });
        out.counters = cache.stats();
        break;
      }
      case ComponentKind::Tlb: {
        Mmu mmu(std::get<TlbParams>(slot.params), mp.tlbPenalties);
        trace.replay(
            [&](const MemRef &ref) {
                mmu.translate(ref);
                ++delivered;
            },
            [&](const TraceEvent &e) {
                mmu.invalidatePage(e.vpn, e.asid, e.global);
            });
        out.counters = mmu.stats();
        break;
      }
      case ComponentKind::Victim: {
        VictimCache vc(std::get<VictimParams>(slot.params));
        trace.replayFetchPaddrs([&](std::uint64_t paddr) {
            vc.access(paddr);
            ++delivered;
        });
        out.counters = vc.stats();
        break;
      }
      case ComponentKind::WriteBuffer: {
        WriteBufferSim sim(std::get<WriteBufferParams>(slot.params));
        trace.replay([&](const MemRef &ref) {
            sim.observe(ref.kind);
            ++delivered;
        });
        out.counters = sim.stats();
        break;
      }
      case ComponentKind::Hierarchy: {
        const HierarchyParams &p = std::get<HierarchyParams>(slot.params);
        const auto drive = [&](auto &hierarchy) {
            trace.replay([&](const MemRef &ref) {
                if (!ref.isFetch() && isUncached(ref.vaddr))
                    return;
                hierarchy.access(ref.paddr, ref.kind);
                ++delivered;
            });
            out.counters = hierarchy.stats();
        };
        if (p.unified()) {
            UnifiedCache unified(p.l1i, p.penalties);
            drive(unified);
        } else {
            TwoLevelCache split(p);
            drive(split);
        }
        break;
      }
    }
    return out;
}

/** Replay every slot through makeComponent + replayComponent and
 * hold its counters and delivered count to the oracle's. */
void
expectMatchesOracle(const RecordedTrace &trace,
                    const std::vector<ComponentSlot> &slots)
{
    const MachineParams mp = MachineParams::decstation3100();
    for (const ComponentSlot &slot : slots) {
        SCOPED_TRACE(slot.describe());
        const auto component = makeComponent(slot, mp);
        EXPECT_EQ(replayComponent(trace, *component), trace.size());
        const OracleReplay oracle = oracleReplay(trace, slot);
        EXPECT_EQ(component->delivered(), oracle.delivered);
        expectSameCounters(oracle.counters, component->counters());
    }
}

// ----- slots -----

/** Cache shapes from every corner of the design space: direct-mapped
 * to 8-way, 1- to 32-word lines, plus a 16-way and a 64-word-line
 * shape beyond the paper's grid. */
std::vector<CacheGeometry>
diffGeometries()
{
    return {
        CacheGeometry::fromWords(2 * 1024, 1, 1),
        CacheGeometry::fromWords(8 * 1024, 4, 2),
        CacheGeometry::fromWords(16 * 1024, 16, 4),
        CacheGeometry::fromWords(32 * 1024, 32, 8),
        CacheGeometry::fromWords(32 * 1024, 4, 16),
        CacheGeometry::fromWords(64 * 1024, 64, 1),
    };
}

/** Every diffGeometries() cache as an I-cache and as a D-cache
 * slot. */
std::vector<ComponentSlot>
cacheSlots()
{
    std::vector<ComponentSlot> slots;
    for (const CacheGeometry &g : diffGeometries()) {
        slots.push_back(ComponentSlot::icache(g));
        slots.push_back(ComponentSlot::dcache(g));
    }
    return slots;
}

std::vector<ComponentSlot>
tlbSlots()
{
    std::vector<ComponentSlot> slots;
    for (const TlbGeometry &g :
         {TlbGeometry::fullyAssoc(32), TlbGeometry::fullyAssoc(64),
          TlbGeometry(128, 2), TlbGeometry(256, 4)}) {
        TlbParams p;
        p.geom = g;
        slots.push_back(ComponentSlot::tlb(p));
    }
    return slots;
}

/** Victim, write-buffer and hierarchy slots (one per HierarchyOrg),
 * shaped so each exercises its filter: small enough to miss,
 * direct-mapped and set-associative, an L2 that actually captures
 * traffic. */
std::vector<ComponentSlot>
extensionSlots()
{
    std::vector<ComponentSlot> slots;
    VictimParams victim;
    victim.l1 = CacheGeometry::fromWords(4 * 1024, 4, 1);
    victim.entries = 4;
    slots.push_back(ComponentSlot::victim(victim));
    WriteBufferParams wb;
    wb.entries = 2;
    slots.push_back(ComponentSlot::writeBuffer(wb));
    HierarchyParams split;
    split.l1i = CacheGeometry::fromWords(4 * 1024, 4, 2);
    split.l1d = CacheGeometry::fromWords(2 * 1024, 4, 2);
    split.l2 = CacheGeometry::fromWords(16 * 1024, 8, 4);
    split.org = HierarchyOrg::SplitL2;
    slots.push_back(ComponentSlot::hierarchy(split));
    split.org = HierarchyOrg::Split;
    slots.push_back(ComponentSlot::hierarchy(split));
    HierarchyParams unified;
    unified.l1i = CacheGeometry::fromWords(8 * 1024, 4, 2);
    unified.org = HierarchyOrg::Unified;
    slots.push_back(ComponentSlot::hierarchy(unified));
    return slots;
}

/** One I-cache, D-cache and TLB slot, then extensionSlots(). */
std::vector<ComponentSlot>
allKindSlots()
{
    const CacheGeometry cache = CacheGeometry::fromWords(8 * 1024, 4, 2);
    TlbParams tlb;
    tlb.geom = TlbGeometry(64, 2);
    std::vector<ComponentSlot> slots = {ComponentSlot::icache(cache),
                                        ComponentSlot::dcache(cache),
                                        ComponentSlot::tlb(tlb)};
    const std::vector<ComponentSlot> more = extensionSlots();
    slots.insert(slots.end(), more.begin(), more.end());
    return slots;
}

/** cacheSlots(), tlbSlots() and extensionSlots() together. */
std::vector<ComponentSlot>
everySlot()
{
    std::vector<ComponentSlot> slots = cacheSlots();
    for (const std::vector<ComponentSlot> &more :
         {tlbSlots(), extensionSlots()})
        slots.insert(slots.end(), more.begin(), more.end());
    return slots;
}

// ----- traces -----

/** 90,000 references of mpeg_play under @p os; fails the test when
 * the recording carries no invalidation event, which would prove the
 * event interleave only vacuously. */
RecordedTrace
recordedTrace(OsKind os)
{
    System system(benchmarkParams(BenchmarkId::Mpeg), os, 42);
    RecordedTrace trace = system.record(90000);
    EXPECT_FALSE(trace.events().empty());
    return trace;
}

MemRef
randomRef(Rng &rng)
{
    MemRef r;
    r.vaddr = rng.next() & 0xffffffff;
    r.paddr = rng.next() & 0x3fffffff;
    r.asid = std::uint32_t(rng.below(64));
    r.kind = static_cast<RefKind>(rng.below(3));
    r.mode = static_cast<Mode>(rng.below(2));
    r.mapped = rng.chance(0.8);
    return r;
}

/**
 * An adversarial synthetic stream: multiple chunks with an uneven
 * tail, a small enough page/ASID universe that invalidations hit live
 * pages, and events pinned at every awkward position — before the
 * first reference, straddling each chunk seam, and trailing past the
 * end (which must never fire).
 */
RecordedTrace
randomEventedTrace(std::uint64_t seed, std::uint64_t n)
{
    Rng rng(seed);
    RecordedTrace trace;
    for (std::uint64_t i = 0; i < n; ++i) {
        MemRef r = randomRef(rng);
        r.vaddr = rng.below(1 << 20); // kuseg, ~256 pages
        r.asid = std::uint32_t(rng.below(4));
        r.mapped = true;
        if (rng.chance(0.01))
            trace.recordInvalidation(rng.below(256),
                                     std::uint32_t(rng.below(4)),
                                     rng.chance(0.2));
        const std::uint64_t c = RecordedTrace::chunkRefs;
        if (i % c == 0 || i % c == c - 1)
            trace.recordInvalidation(vpnOf(r.vaddr), r.asid, false);
        trace.append(r);
    }
    trace.recordInvalidation(1, 1, false); // trailing: must not fire
    return trace;
}

// ----- single components against the oracle -----

TEST(BatchedReplay, CacheKernelsMatchScalarOnRecordedTrace)
{
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach})
        expectMatchesOracle(recordedTrace(os), cacheSlots());
}

TEST(BatchedReplay, CacheKernelsMatchScalarOnRandomizedTraces)
{
    // Synthetic streams with a full-chunk seam and an uneven tail;
    // unlike System output, their unconstrained vaddrs put an eighth
    // of the data in kseg1, which the D-cache and hierarchy streams
    // must drop and the write buffer must still see.
    for (std::uint64_t seed : {3u, 5u, 9u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        RecordedTrace trace;
        const std::uint64_t n = RecordedTrace::chunkRefs + 4097;
        for (std::uint64_t i = 0; i < n; ++i)
            trace.append(randomRef(rng));
        expectMatchesOracle(trace, everySlot());
    }
}

TEST(BatchedReplay, MmuBatchedMatchesScalarOnRecordedTraces)
{
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach})
        expectMatchesOracle(recordedTrace(os), tlbSlots());
}

TEST(BatchedReplay, MmuBatchedHandlesChunkStraddlingEvents)
{
    // Events pinned exactly at chunk seams make replayComponent slice
    // at the right reference, and nowhere else. The trailing event
    // must never fire on either path.
    const RecordedTrace trace =
        randomEventedTrace(31, 2 * RecordedTrace::chunkRefs + 137);
    expectMatchesOracle(trace, tlbSlots());
    // Non-vacuous: the invalidations actually produced faults.
    const MmuStats oracle = std::get<MmuStats>(
        oracleReplay(trace, tlbSlots().front()).counters);
    EXPECT_GT(oracle.counts[unsigned(MissClass::InvalidFault)], 0u);
}

TEST(ComponentReplay, ScalarMatchesChunkedOnRecordedTraces)
{
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach})
        expectMatchesOracle(recordedTrace(os), extensionSlots());
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
    expectMatchesOracle(trace, everySlot());
}

// ----- sweeps against the oracle -----

/** Every slot of @p sweep, in task order, holds the oracle's counters
 * for @p trace in @p result. */
void
expectSweepMatchesOracle(const ComponentSweep &sweep,
                         const SweepResult &result,
                         const RecordedTrace &trace)
{
    ASSERT_EQ(result.componentCount(), sweep.components().size());
    std::size_t seen[numComponentKinds] = {};
    for (const ComponentSlot &slot : sweep.components()) {
        SCOPED_TRACE(slot.describe());
        const std::size_t i = seen[std::size_t(slot.kind)]++;
        expectSameCounters(oracleReplay(trace, slot).counters,
                           sweptCounters(result, slot.kind, i));
    }
}

TEST(BatchedReplay, SweepMatchesScalarExpectationAcrossThreads)
{
    // The classic three-axis sweep (its caches replay through the
    // one-pass engine, its TLBs per slot) reproduces the oracle
    // configuration for configuration, at 1 and 4 threads.
    const std::vector<CacheGeometry> caches = {
        CacheGeometry::fromWords(2 * 1024, 4, 1),
        CacheGeometry::fromWords(8 * 1024, 4, 1),
        CacheGeometry::fromWords(16 * 1024, 4, 2)};
    const std::vector<TlbGeometry> tlbs = {
        TlbGeometry::fullyAssoc(32), TlbGeometry(128, 2)};
    const ComponentSweep sweep(caches, caches, tlbs);

    System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, 42);
    const RecordedTrace trace = system.record(60000);
    const SweepResult serial = sweep.run(trace, 1);
    const SweepResult parallel = sweep.run(trace, 4);
    expectSameSweep(serial, parallel);
    for (const SweepResult *result : {&serial, &parallel}) {
        SCOPED_TRACE(result == &serial ? "1 thread" : "4 threads");
        expectSweepMatchesOracle(sweep, *result, trace);
    }
}

TEST(ComponentReplay, HeterogeneousSweepIsThreadCountInvariant)
{
    // A slot list of every kind reproduces the oracle at 1 and 4
    // threads: the sweep adds nothing beyond per-slot replay.
    const ComponentSweep sweep(allKindSlots());
    System system(benchmarkParams(BenchmarkId::Mab), OsKind::Mach, 42);
    const RecordedTrace trace = system.record(60000);
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const SweepResult result = sweep.run(trace, threads);
        ASSERT_EQ(result.victimCount(), 1u);
        ASSERT_EQ(result.writeBufferCount(), 1u);
        ASSERT_EQ(result.hierarchyCount(), 3u);
        expectSweepMatchesOracle(sweep, result, trace);
    }
}

/**
 * Run @p sweep cold at 1 thread into a fresh store, then warm at 4
 * threads, and hold both to the oracle over the recording the sweep
 * makes of mpeg_play under @p os. The warm run must load every shard
 * and record nothing.
 */
void
expectColdAndWarmMatchOracle(const ComponentSweep &sweep, OsKind os,
                             const std::string &store_name)
{
    RunConfig rc;
    rc.references = 50000;
    rc.seed = 42;
    rc.threads = 1;
    ::unsetenv("OMA_STORE_DIR");
    rc.storeDir = testing::TempDir() + "/" + store_name + "." +
        std::to_string(::getpid());
    std::filesystem::remove_all(rc.storeDir);

    const WorkloadParams &mpeg = benchmarkParams(BenchmarkId::Mpeg);
    System system(mpeg, os, rc.seed);
    const RecordedTrace trace = system.record(rc.references);

    const SweepResult cold = sweep.run(mpeg, os, rc);
    rc.threads = 4;
    obs::Observation warm_obs;
    const SweepResult warm = sweep.run(mpeg, os, rc, warm_obs);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
    expectSameSweep(cold, warm);
    {
        SCOPED_TRACE("cold");
        expectSweepMatchesOracle(sweep, cold, trace);
    }
    {
        SCOPED_TRACE("warm");
        expectSweepMatchesOracle(sweep, warm, trace);
    }
    std::filesystem::remove_all(rc.storeDir);
}

TEST(BatchedReplay, WarmStoreReplayMatchesScalarExpectation)
{
    // The classic grid under Ultrix: the cold run simulates live and
    // persists its shards; the warm rerun decodes them and simulates
    // nothing.
    const ComponentSweep sweep({CacheGeometry::fromWords(4 * 1024, 4, 2)},
                               {CacheGeometry::fromWords(4 * 1024, 4, 2)},
                               {TlbGeometry::fullyAssoc(32)});
    expectColdAndWarmMatchOracle(sweep, OsKind::Ultrix,
                                 "oma_batched_store");
}

TEST(ComponentReplay, WarmStoreReproducesColdForEveryKind)
{
    // Every extension kind's shard decodes on the warm rerun (zero
    // store misses) and reproduces the oracle bitwise.
    ComponentSweep sweep({CacheGeometry::fromWords(4 * 1024, 4, 2)},
                         {CacheGeometry::fromWords(4 * 1024, 4, 2)},
                         {TlbGeometry::fullyAssoc(32)});
    for (const ComponentSlot &slot : allKindSlots())
        sweep.addComponent(slot);
    expectColdAndWarmMatchOracle(sweep, OsKind::Mach,
                                 "oma_component_store");
}

// ----- names and codec -----

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
