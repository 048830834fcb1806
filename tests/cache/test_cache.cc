/**
 * @file
 * Unit tests for the set-associative cache simulator.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "cache/cache.hh"
#include "support/bits.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

TEST(Cache, ColdMissThenHit)
{
    Cache cache(CacheGeometry(1024, 16, 1));
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
    Cache cache(CacheGeometry(1024, 16, 1));
    EXPECT_FALSE(cache.access(0x0000, RefKind::Load));
    EXPECT_FALSE(cache.access(0x0400, RefKind::Load));
    EXPECT_FALSE(cache.access(0x0000, RefKind::Load)); // evicted
}

TEST(Cache, TwoWayHoldsConflictingPair)
{
    Cache cache(CacheGeometry(1024, 16, 2));
    EXPECT_FALSE(cache.access(0x0000, RefKind::Load));
    EXPECT_FALSE(cache.access(0x0400, RefKind::Load));
    EXPECT_TRUE(cache.access(0x0000, RefKind::Load));
    EXPECT_TRUE(cache.access(0x0400, RefKind::Load));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // One set, two ways.
    Cache cache(CacheGeometry(32, 16, 2));
    cache.access(0x000, RefKind::Load); // A
    cache.access(0x100, RefKind::Load); // B
    cache.access(0x000, RefKind::Load); // touch A
    cache.access(0x200, RefKind::Load); // C evicts B
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_TRUE(cache.probe(0x200));
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache cache(CacheGeometry(32, 16, 2));
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
    Cache cache(CacheGeometry(1024, 16, 1));
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

TEST(Cache, CompulsoryMissesCountDistinctLines)
{
    Cache cache(CacheGeometry(64, 16, 1));
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t line = 0; line < 16; ++line)
            cache.access(line * 16, RefKind::Load);
    }
    // The cache thrashes (16 lines into 4 sets), but only the first
    // round's misses are compulsory.
    EXPECT_EQ(cache.stats().compulsoryMisses, 16u);
    EXPECT_GT(cache.stats().totalMisses(), 16u);
}

TEST(CacheCompulsory, MatchesAHashSetOracle)
{
    // Random streams through caches of several geometries, with
    // prefetches. A compulsory miss is the first miss of its line
    // since construction, so a hash set of the lines that missed is
    // the oracle.
    Rng rng(0xc01d);
    for (const CacheGeometry &geom : {CacheGeometry::fromWords(1024, 1, 1),
                                      CacheGeometry::fromWords(2048, 4, 2),
                                      CacheGeometry::fromWords(4096, 2, 4),
                                      CacheGeometry::fromWords(8192, 8, 8)}) {
        SCOPED_TRACE(geom.describe());
        Cache cache(geom);
        const unsigned line_shift = floorLog2(geom.lineBytes);
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
