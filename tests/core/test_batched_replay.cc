/**
 * @file
 * Differential harness for the batched replay kernels: every batched
 * driver (cache fetch, cache data, MMU translate) must be
 * bitwise-identical to the scalar per-reference replay it replaces —
 * for recorded System traces and adversarially randomized synthetic
 * ones, for every replacement/write/allocate policy, for
 * compile-time-specialized and generic-fallback geometries, and
 * end-to-end through ComponentSweep at 1 and 4 threads including
 * warm artifact-store replays. Also pins the kernel dispatch table:
 * every specialization is actually selectable and geometries outside
 * the grid fall back to the generic kernel.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cache/replay.hh"
#include "core/sweep.hh"
#include "support/rng.hh"
#include "tlb/mips_va.hh"
#include "tlb/replay.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

void
expectSameCacheStats(const CacheStats &a, const CacheStats &b)
{
    for (unsigned k = 0; k < numRefKinds; ++k) {
        ASSERT_EQ(a.accesses[k], b.accesses[k]) << "kind " << k;
        ASSERT_EQ(a.misses[k], b.misses[k]) << "kind " << k;
    }
    ASSERT_EQ(a.lineFills, b.lineFills);
    ASSERT_EQ(a.writebacks, b.writebacks);
    ASSERT_EQ(a.writeThroughWords, b.writeThroughWords);
    ASSERT_EQ(a.compulsoryMisses, b.compulsoryMisses);
}

void
expectSameMmuStats(const MmuStats &a, const MmuStats &b)
{
    ASSERT_EQ(a.translations, b.translations);
    for (unsigned c = 0; c < numMissClasses; ++c) {
        ASSERT_EQ(a.counts[c], b.counts[c]) << "class " << c;
        ASSERT_EQ(a.cycles[c], b.cycles[c]) << "class " << c;
    }
    ASSERT_EQ(a.asidFlushes, b.asidFlushes);
}

/** Bitwise double equality (== would conflate -0.0 and 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameSweepResult(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.instructions, b.instructions);
    ASSERT_EQ(a.references, b.references);
    ASSERT_EQ(a.icacheCount(), b.icacheCount());
    ASSERT_EQ(a.dcacheCount(), b.dcacheCount());
    ASSERT_EQ(a.tlbCount(), b.tlbCount());
    for (std::size_t i = 0; i < a.icacheCount(); ++i)
        expectSameCacheStats(a.icache(i).stats, b.icache(i).stats);
    for (std::size_t i = 0; i < a.dcacheCount(); ++i)
        expectSameCacheStats(a.dcache(i).stats, b.dcache(i).stats);
    for (std::size_t i = 0; i < a.tlbCount(); ++i)
        expectSameMmuStats(a.tlb(i).stats, b.tlb(i).stats);
    EXPECT_TRUE(sameBits(a.wbCpi, b.wbCpi));
    EXPECT_TRUE(sameBits(a.otherCpi, b.otherCpi));
}

// ----- scalar reference implementations -----

/** The pre-batching fetch leg: per-ref view + scalar access(). */
CacheStats
scalarFetchReplay(const RecordedTrace &trace, const CacheParams &p)
{
    Cache cache(p);
    trace.replayFetchPaddrs([&](std::uint64_t paddr) {
        cache.access(paddr, RefKind::IFetch);
    });
    return cache.stats();
}

/** The pre-batching data leg: per-ref view + scalar access(). */
CacheStats
scalarDataReplay(const RecordedTrace &trace, const CacheParams &p)
{
    Cache cache(p);
    trace.replayCachedData([&](std::uint64_t paddr, RefKind kind) {
        cache.access(paddr, kind);
    });
    return cache.stats();
}

/** The pre-batching TLB leg: event-interleaved view + translate(). */
MmuStats
scalarTranslateReplay(const RecordedTrace &trace, const TlbParams &p)
{
    Mmu mmu(p, MachineParams::decstation3100().tlbPenalties);
    trace.replay(
        [&](const MemRef &ref) { mmu.translate(ref); },
        [&](const TraceEvent &e) {
            mmu.invalidatePage(e.vpn, e.asid, e.global);
        });
    return mmu.stats();
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

/** Geometry grid for the differential runs: specialized rows from
 * every corner of the dispatch table plus generic fallbacks (16-way
 * and 64-word-line shapes have no compile-time kernel). */
std::vector<CacheGeometry>
diffGeometries()
{
    return {
        CacheGeometry::fromWords(2 * 1024, 1, 1),
        CacheGeometry::fromWords(8 * 1024, 4, 2),
        CacheGeometry::fromWords(16 * 1024, 16, 4),
        CacheGeometry::fromWords(32 * 1024, 32, 8),
        CacheGeometry::fromWords(32 * 1024, 4, 16), // generic: assoc
        CacheGeometry::fromWords(64 * 1024, 64, 1), // generic: line
    };
}

/** Policy variations exercising every counter the stats carry. */
std::vector<CacheParams>
diffParams()
{
    std::vector<CacheParams> out;
    unsigned i = 0;
    for (const CacheGeometry &g : diffGeometries()) {
        CacheParams p;
        p.geom = g;
        switch (i++ % 4) {
          case 0:
            break; // defaults: LRU, write-through, write-allocate
          case 1:
            p.write = WritePolicy::WriteBack;
            break;
          case 2:
            p.repl = ReplacementPolicy::Fifo;
            p.alloc = AllocPolicy::NoWriteAllocate;
            break;
          default:
            p.repl = ReplacementPolicy::Random;
            p.write = WritePolicy::WriteBack;
            p.seed = 7;
            break;
        }
        out.push_back(p);
    }
    return out;
}

TEST(BatchedReplay, CacheKernelsMatchScalarOnRecordedTrace)
{
    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Ultrix,
                  42);
    const RecordedTrace trace = system.record(60000);
    for (const CacheParams &p : diffParams()) {
        SCOPED_TRACE(p.geom.describe());
        {
            Cache batched(p);
            const std::uint64_t refs =
                replayCacheStream(trace, CacheStream::Fetch, batched);
            SCOPED_TRACE(batched.batchKernelName());
            expectSameCacheStats(scalarFetchReplay(trace, p),
                                 batched.stats());
            EXPECT_EQ(refs, batched.stats().totalAccesses());
        }
        {
            Cache batched(p);
            const std::uint64_t refs =
                replayCacheStream(trace, CacheStream::Data, batched);
            SCOPED_TRACE(batched.batchKernelName());
            expectSameCacheStats(scalarDataReplay(trace, p),
                                 batched.stats());
            EXPECT_EQ(refs, batched.stats().totalAccesses());
        }
    }
}

TEST(BatchedReplay, CacheKernelsMatchScalarOnRandomizedTraces)
{
    // Synthetic streams with a full-chunk seam and an uneven tail;
    // unlike System output these exercise uncached (kseg1) filtering
    // via randomRef's unconstrained vaddrs.
    for (std::uint64_t seed : {3u, 5u, 9u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        RecordedTrace trace;
        const std::uint64_t n = RecordedTrace::chunkRefs + 4097;
        for (std::uint64_t i = 0; i < n; ++i)
            trace.append(randomRef(rng));
        for (const CacheParams &p : diffParams()) {
            SCOPED_TRACE(p.geom.describe());
            Cache fetch(p);
            replayCacheStream(trace, CacheStream::Fetch, fetch);
            expectSameCacheStats(scalarFetchReplay(trace, p),
                                 fetch.stats());
            Cache data(p);
            replayCacheStream(trace, CacheStream::Data, data);
            expectSameCacheStats(scalarDataReplay(trace, p),
                                 data.stats());
        }
    }
}

TEST(BatchedReplay, MmuBatchedMatchesScalarOnRecordedTraces)
{
    const std::vector<TlbGeometry> geoms = {
        TlbGeometry::fullyAssoc(32), TlbGeometry::fullyAssoc(64),
        TlbGeometry(128, 2), TlbGeometry(256, 4)};
    for (OsKind os : {OsKind::Ultrix, OsKind::Mach}) {
        System system(benchmarkParams(BenchmarkId::Mpeg), os, 42);
        const RecordedTrace trace = system.record(90000);
        // A trace without invalidation events would prove the event
        // interleave only vacuously.
        ASSERT_FALSE(trace.events().empty());
        for (const TlbGeometry &g : geoms) {
            SCOPED_TRACE(g.describe());
            TlbParams p;
            p.geom = g;
            Mmu mmu(p, MachineParams::decstation3100().tlbPenalties);
            const std::uint64_t refs =
                replayTranslateBatched(trace, mmu);
            EXPECT_EQ(refs, trace.size());
            expectSameMmuStats(scalarTranslateReplay(trace, p),
                               mmu.stats());
        }
    }
}

TEST(BatchedReplay, MmuBatchedHandlesChunkStraddlingEvents)
{
    // Events pinned exactly at chunk seams force the batched driver
    // off its dense fast path at the right reference — and nowhere
    // else. The trailing event must never fire on either path.
    const RecordedTrace trace =
        randomEventedTrace(31, 2 * RecordedTrace::chunkRefs + 137);
    TlbParams p;
    p.geom = TlbGeometry(64, 2);
    Mmu mmu(p, MachineParams::decstation3100().tlbPenalties);
    EXPECT_EQ(replayTranslateBatched(trace, mmu), trace.size());
    const MmuStats scalar = scalarTranslateReplay(trace, p);
    expectSameMmuStats(scalar, mmu.stats());
    // Non-vacuous: the invalidations actually produced faults.
    EXPECT_GT(scalar.counts[unsigned(MissClass::InvalidFault)], 0u);
}

TEST(BatchedReplay, DispatchTableCoversEverySpecialization)
{
    const auto rows = Cache::specializedGeometries();
    ASSERT_FALSE(rows.empty());
    std::set<std::string> names;
    for (const auto &[ways, words] : rows) {
        // 16 sets is enough to make any row's shape realizable.
        const CacheGeometry geom = CacheGeometry::fromWords(
            std::uint64_t(ways) * words * bytesPerWord * 16, words,
            ways);
        CacheParams p;
        p.geom = geom;
        const Cache cache(p);
        const std::string name = cache.batchKernelName();
        SCOPED_TRACE(geom.describe());
        EXPECT_EQ(name,
                  "w" + std::to_string(ways) + "x" +
                      std::to_string(words) + "w");
        names.insert(name);
    }
    // Every row selectable, and no two rows alias one kernel name.
    EXPECT_EQ(names.size(), rows.size());
}

TEST(BatchedReplay, OffGridGeometriesFallBackToGeneric)
{
    const auto rows = Cache::specializedGeometries();
    for (const CacheGeometry &geom :
         {CacheGeometry::fromWords(32 * 1024, 4, 16),
          CacheGeometry::fromWords(64 * 1024, 64, 1)}) {
        for (const auto &[ways, words] : rows)
            ASSERT_FALSE(ways == geom.assoc &&
                         words == geom.lineWords());
        CacheParams p;
        p.geom = geom;
        EXPECT_STREQ(Cache(p).batchKernelName(), "generic")
            << geom.describe();
    }
}

TEST(BatchedReplay, SweepMatchesScalarExpectationAcrossThreads)
{
    // End to end: the sweep engine (batched kernels inside) must
    // reproduce hand-rolled scalar replays configuration for
    // configuration, at 1 and 4 threads.
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
    expectSameSweepResult(serial, sweep.run(trace, 4));

    // The sweep's replacement default is LRU, so the per-slot RNG
    // seed cannot influence results and a default-seed scalar cache
    // is the exact expectation.
    for (std::size_t i = 0; i < caches.size(); ++i) {
        SCOPED_TRACE(caches[i].describe());
        CacheParams p;
        p.geom = caches[i];
        expectSameCacheStats(scalarFetchReplay(trace, p),
                             serial.icache(i).stats);
        expectSameCacheStats(scalarDataReplay(trace, p),
                             serial.dcache(i).stats);
    }
    for (std::size_t i = 0; i < tlbs.size(); ++i) {
        SCOPED_TRACE(tlbs[i].describe());
        TlbParams p;
        p.geom = tlbs[i];
        expectSameMmuStats(scalarTranslateReplay(trace, p),
                           serial.tlb(i).stats);
    }
}

TEST(BatchedReplay, WarmStoreReplayMatchesScalarExpectation)
{
    // Cold store run (live batched simulation, persists shards) and
    // warm rerun (decodes v3-encoded shards and trace, simulates
    // nothing) must both land on the scalar expectation bitwise.
    const std::vector<CacheGeometry> caches = {
        CacheGeometry::fromWords(4 * 1024, 4, 2)};
    const std::vector<TlbGeometry> tlbs = {TlbGeometry::fullyAssoc(32)};
    const ComponentSweep sweep(caches, caches, tlbs);

    RunConfig rc;
    rc.references = 50000;
    rc.seed = 42;
    rc.threads = 1;
    ::unsetenv("OMA_STORE_DIR");
    rc.storeDir = testing::TempDir() + "/oma_batched_store." +
        std::to_string(::getpid());
    std::filesystem::remove_all(rc.storeDir);

    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Ultrix,
                  rc.seed);
    const RecordedTrace trace = system.record(rc.references);

    const WorkloadParams &mpeg = benchmarkParams(BenchmarkId::Mpeg);
    const SweepResult cold = sweep.run(mpeg, OsKind::Ultrix, rc);
    rc.threads = 4;
    obs::Observation warm_obs;
    const SweepResult warm =
        sweep.run(mpeg, OsKind::Ultrix, rc, &warm_obs);
    expectSameSweepResult(cold, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);

    CacheParams cp;
    cp.geom = caches[0];
    expectSameCacheStats(scalarFetchReplay(trace, cp),
                         warm.icache(0).stats);
    expectSameCacheStats(scalarDataReplay(trace, cp),
                         warm.dcache(0).stats);
    TlbParams tp;
    tp.geom = tlbs[0];
    expectSameMmuStats(scalarTranslateReplay(trace, tp),
                       warm.tlb(0).stats);
    std::filesystem::remove_all(rc.storeDir);
}

} // namespace
} // namespace oma
