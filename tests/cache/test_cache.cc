/**
 * @file
 * Unit tests for the set-associative cache simulator.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "cache/cache.hh"
#include "support/bits.hh"

namespace oma
{
namespace
{

CacheParams
makeParams(std::uint64_t capacity, std::uint64_t line,
           std::uint64_t ways,
           ReplacementPolicy repl = ReplacementPolicy::Lru)
{
    CacheParams p;
    p.geom = CacheGeometry(capacity, line, ways);
    p.repl = repl;
    return p;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(makeParams(1024, 16, 1));
    EXPECT_FALSE(cache.access(0x1000, RefKind::Load));
    EXPECT_TRUE(cache.access(0x1000, RefKind::Load));
    // Same line, different word: still a hit.
    EXPECT_TRUE(cache.access(0x100c, RefKind::Load));
    // Next line: miss.
    EXPECT_FALSE(cache.access(0x1010, RefKind::Load));
}

TEST(Cache, DirectMappedConflict)
{
    // 1-KB direct-mapped, 16-B lines: addresses 1 KB apart collide.
    Cache cache(makeParams(1024, 16, 1));
    EXPECT_FALSE(cache.access(0x0000, RefKind::Load));
    EXPECT_FALSE(cache.access(0x0400, RefKind::Load));
    EXPECT_FALSE(cache.access(0x0000, RefKind::Load)); // evicted
}

TEST(Cache, TwoWayHoldsConflictingPair)
{
    Cache cache(makeParams(1024, 16, 2));
    EXPECT_FALSE(cache.access(0x0000, RefKind::Load));
    EXPECT_FALSE(cache.access(0x0400, RefKind::Load));
    EXPECT_TRUE(cache.access(0x0000, RefKind::Load));
    EXPECT_TRUE(cache.access(0x0400, RefKind::Load));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // One set, two ways.
    Cache cache(makeParams(32, 16, 2));
    cache.access(0x000, RefKind::Load); // A
    cache.access(0x100, RefKind::Load); // B
    cache.access(0x000, RefKind::Load); // touch A
    cache.access(0x200, RefKind::Load); // C evicts B
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_TRUE(cache.probe(0x200));
}

TEST(Cache, FifoIgnoresHits)
{
    Cache cache(makeParams(32, 16, 2, ReplacementPolicy::Fifo));
    cache.access(0x000, RefKind::Load); // A (first in)
    cache.access(0x100, RefKind::Load); // B
    cache.access(0x000, RefKind::Load); // hit A: FIFO order unchanged
    cache.access(0x200, RefKind::Load); // C evicts A
    EXPECT_FALSE(cache.probe(0x000));
    EXPECT_TRUE(cache.probe(0x100));
    EXPECT_TRUE(cache.probe(0x200));
}

TEST(Cache, RandomReplacementIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        CacheParams p = makeParams(256, 16, 4,
                                   ReplacementPolicy::Random);
        p.seed = seed;
        Cache cache(p);
        Rng rng(1);
        std::uint64_t misses = 0;
        for (int i = 0; i < 10000; ++i) {
            if (!cache.access(rng.below(64) * 16, RefKind::Load))
                ++misses;
        }
        return misses;
    };
    EXPECT_EQ(run(7), run(7));
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache cache(makeParams(32, 16, 2));
    cache.access(0x000, RefKind::Load);
    cache.access(0x100, RefKind::Load);
    // Probing A repeatedly must not refresh its LRU position.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(cache.probe(0x000));
    cache.access(0x200, RefKind::Load); // evicts A (still LRU oldest)
    EXPECT_FALSE(cache.probe(0x000));
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.totalAccesses(), 3u);
}

TEST(Cache, StatsPerKind)
{
    Cache cache(makeParams(1024, 16, 1));
    cache.access(0x0, RefKind::IFetch);
    cache.access(0x0, RefKind::IFetch);
    cache.access(0x40, RefKind::Load);
    cache.access(0x80, RefKind::Store);
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.accesses[unsigned(RefKind::IFetch)], 2u);
    EXPECT_EQ(s.misses[unsigned(RefKind::IFetch)], 1u);
    EXPECT_EQ(s.accesses[unsigned(RefKind::Load)], 1u);
    EXPECT_EQ(s.misses[unsigned(RefKind::Load)], 1u);
    EXPECT_EQ(s.misses[unsigned(RefKind::Store)], 1u);
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.75);
    EXPECT_DOUBLE_EQ(s.missRatio(RefKind::IFetch), 0.5);
}

TEST(Cache, WriteThroughCountsWords)
{
    Cache cache(makeParams(1024, 16, 1));
    cache.access(0x0, RefKind::Store);
    cache.access(0x0, RefKind::Store);
    cache.access(0x4, RefKind::Store);
    EXPECT_EQ(cache.stats().writeThroughWords, 3u);
    EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(Cache, WriteBackCountsEvictions)
{
    CacheParams p = makeParams(32, 16, 1);
    p.write = WritePolicy::WriteBack;
    Cache cache(p);
    cache.access(0x000, RefKind::Store); // dirty A (set 0)
    cache.access(0x010, RefKind::Store); // dirty B (set 1)
    cache.access(0x100, RefKind::Load);  // evicts dirty A
    EXPECT_EQ(cache.stats().writebacks, 1u);
    cache.access(0x110, RefKind::Load); // evicts dirty B
    EXPECT_EQ(cache.stats().writebacks, 2u);
    EXPECT_EQ(cache.stats().writeThroughWords, 0u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    CacheParams p = makeParams(32, 16, 1);
    p.write = WritePolicy::WriteBack;
    Cache cache(p);
    cache.access(0x000, RefKind::Load);
    cache.access(0x100, RefKind::Load); // evicts clean line
    EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(Cache, NoWriteAllocateLeavesStoreMissesUncached)
{
    CacheParams p = makeParams(1024, 16, 1);
    p.alloc = AllocPolicy::NoWriteAllocate;
    Cache cache(p);
    EXPECT_FALSE(cache.access(0x0, RefKind::Store));
    EXPECT_FALSE(cache.probe(0x0));
    EXPECT_FALSE(cache.access(0x0, RefKind::Store)); // still missing
    // Loads do allocate.
    EXPECT_FALSE(cache.access(0x0, RefKind::Load));
    EXPECT_TRUE(cache.access(0x0, RefKind::Store));
}

TEST(Cache, CompulsoryMissesCountDistinctLines)
{
    Cache cache(makeParams(64, 16, 1));
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t line = 0; line < 16; ++line)
            cache.access(line * 16, RefKind::Load);
    }
    // The cache thrashes (16 lines into 4 sets), but only the first
    // round's misses are compulsory.
    EXPECT_EQ(cache.stats().compulsoryMisses, 16u);
    EXPECT_GT(cache.stats().totalMisses(), 16u);
}

TEST(Cache, InvalidateAllForcesMisses)
{
    Cache cache(makeParams(1024, 16, 2));
    cache.access(0x0, RefKind::Load);
    EXPECT_TRUE(cache.probe(0x0));
    cache.invalidateAll();
    EXPECT_FALSE(cache.probe(0x0));
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache cache(makeParams(1024, 16, 1));
    cache.access(0x0, RefKind::Load);
    cache.resetStats();
    EXPECT_EQ(cache.stats().totalAccesses(), 0u);
    EXPECT_TRUE(cache.access(0x0, RefKind::Load)); // still resident
}

TEST(Cache, LineFillsMatchAllocatedMisses)
{
    Cache cache(makeParams(1024, 16, 1));
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        cache.access(rng.below(4096) & ~3ULL, RefKind::Load);
    EXPECT_EQ(cache.stats().lineFills, cache.stats().totalMisses());
}

TEST(CacheCompulsory, MatchesAHashSetOracle)
{
    // Random streams through caches of several geometries and
    // policies, with store misses that allocate nothing, prefetches
    // and a resetStats() midway. A compulsory miss is the first miss
    // of its line since construction, counted since the last reset,
    // so a hash set of the lines that missed is the oracle.
    struct Shape
    {
        std::uint64_t bytes, words, ways;
        ReplacementPolicy repl;
        WritePolicy write;
        AllocPolicy alloc;
    };
    const Shape shapes[] = {
        {1024, 1, 1, ReplacementPolicy::Lru, WritePolicy::WriteThrough,
         AllocPolicy::WriteAllocate},
        {2048, 4, 2, ReplacementPolicy::Fifo, WritePolicy::WriteBack,
         AllocPolicy::NoWriteAllocate},
        {4096, 2, 4, ReplacementPolicy::Random,
         WritePolicy::WriteThrough, AllocPolicy::NoWriteAllocate},
        {8192, 8, 8, ReplacementPolicy::Lru, WritePolicy::WriteBack,
         AllocPolicy::WriteAllocate},
    };
    Rng rng(0xc01d);
    for (const Shape &shape : shapes) {
        CacheParams params;
        params.geom =
            CacheGeometry::fromWords(shape.bytes, shape.words, shape.ways);
        params.repl = shape.repl;
        params.write = shape.write;
        params.alloc = shape.alloc;
        params.seed = rng.next();
        SCOPED_TRACE(params.geom.describe());
        Cache cache(params);
        const unsigned line_shift = floorLog2(params.geom.lineBytes);
        std::unordered_set<std::uint64_t> missed;
        std::uint64_t expected = 0;
        for (int i = 0; i < 40000; ++i) {
            // Half the references in a hot 4-KB region, half over
            // 1 MB, so lines both repeat and stream past the cache.
            const std::uint64_t paddr =
                rng.below(rng.chance(0.5) ? 4096 : 1 << 20) & ~3ULL;
            if (i % 7 == 3) {
                cache.prefetch(paddr);
                continue;
            }
            const RefKind kind = RefKind(rng.below(numRefKinds));
            if (!cache.access(paddr, kind) &&
                missed.insert(paddr >> line_shift).second)
                ++expected;
            if (i == 20000) {
                cache.resetStats();
                expected = 0;
            }
            if (i % 997 == 0) {
                ASSERT_EQ(cache.stats().compulsoryMisses, expected) << i;
            }
        }
        EXPECT_EQ(cache.stats().compulsoryMisses, expected);
        EXPECT_GT(expected, 4096u);
    }
}

} // namespace
} // namespace oma
