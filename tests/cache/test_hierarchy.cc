/**
 * @file
 * Tests for the unified-L1 and two-level cache hierarchy models.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

CacheGeometry
geom(std::uint64_t kb, std::uint64_t line_words, std::uint64_t ways)
{
    return CacheGeometry::fromWords(kb * 1024, line_words, ways);
}

/** A split organization: the same L1 geometry for I and D. */
HierarchyParams
split(const CacheGeometry &l1, const CacheGeometry &l2, HierarchyOrg org)
{
    HierarchyParams p;
    p.l1i = l1;
    p.l1d = l1;
    p.l2 = l2;
    p.org = org;
    return p;
}

TEST(UnifiedCache, PortConflictsChargeDataRefs)
{
    HierarchyPenalties pen;
    UnifiedCache unified(geom(8, 4, 2), pen);
    unified.access(0x1000, RefKind::IFetch);
    unified.access(0x2000, RefKind::Load);
    unified.access(0x2000, RefKind::Load); // hit, still a conflict
    const HierarchyStats &s = unified.stats();
    EXPECT_EQ(s.instructions, 1u);
    EXPECT_EQ(s.dataRefs, 2u);
    EXPECT_EQ(s.portConflicts, 2u);
    // Conflicts: 2 cycles; misses: fetch (9) + first load (9).
    EXPECT_EQ(s.stallCycles, 2u + 9u + 9u);
}

TEST(UnifiedCache, SharedArrayCausesCrossInterference)
{
    // Code and data that alias in the unified array evict each other;
    // a split pair of half the size each would keep both.
    HierarchyPenalties pen;
    UnifiedCache unified(geom(1, 4, 1), pen); // 1 KB direct-mapped
    // Same index, different tags.
    for (int i = 0; i < 10; ++i) {
        unified.access(0x0000, RefKind::IFetch);
        unified.access(0x8000, RefKind::Load);
    }
    // Every access after the first pair misses (thrash).
    EXPECT_EQ(unified.stats().l1Misses, 20u);
}

TEST(TwoLevelCache, NoL2GoesStraightToMemory)
{
    TwoLevelCache two(
        split(geom(4, 4, 1), geom(64, 8, 4), HierarchyOrg::Split));
    two.access(0x1000, RefKind::IFetch);
    EXPECT_EQ(two.stats().l1Misses, 1u);
    EXPECT_EQ(two.stats().l2Misses, 1u);
    EXPECT_EQ(two.stats().l2Hits, 0u);
    EXPECT_EQ(two.stats().stallCycles, 9u); // 6 + 3 extra words
}

TEST(TwoLevelCache, L2CapturesL1ConflictMisses)
{
    TwoLevelCache two(
        split(geom(1, 4, 1), geom(64, 4, 4), HierarchyOrg::SplitL2));
    // Two fetch streams that conflict in the tiny L1 but coexist in
    // the L2: after warmup every L1 miss is an L2 hit.
    for (int i = 0; i < 50; ++i) {
        two.access(0x0000, RefKind::IFetch);
        two.access(0x8000, RefKind::IFetch);
    }
    const HierarchyStats &s = two.stats();
    EXPECT_EQ(s.l1Misses, 100u);
    EXPECT_EQ(s.l2Misses, 2u); // compulsory only
    EXPECT_EQ(s.l2Hits, 98u);
    // L2 hits cost the short penalty: far cheaper than memory.
    const std::uint64_t expected = 98 * 2 + 2 * (9 + 2 + 2 * 0);
    // l2 fill penalty for the miss path: mem fill of L2 line (6+3)
    // plus L1 refill from L2 (2).
    EXPECT_EQ(s.stallCycles, expected + 2 * 0);
}

TEST(TwoLevelCache, MissPathChargesBothLevels)
{
    TwoLevelCache two(
        split(geom(4, 4, 1), geom(64, 8, 4), HierarchyOrg::SplitL2));
    two.access(0x4000, RefKind::Load);
    // L2 line 8 words: 6 + 7 = 13; L1 refill from L2: 2.
    EXPECT_EQ(two.stats().stallCycles, 13u + 2u);
}

TEST(TwoLevelCache, StoreMissOnOneWordLineFree)
{
    TwoLevelCache two(
        split(geom(4, 1, 1), geom(64, 4, 4), HierarchyOrg::SplitL2));
    two.access(0x4000, RefKind::Store);
    EXPECT_EQ(two.stats().stallCycles, 0u);
    EXPECT_EQ(two.stats().l1Misses, 1u);
}

TEST(TwoLevelCache, L2SmallerThanL1StaysConsistent)
{
    // A degenerate but legal geometry: the L2 is smaller than the
    // L1s, so it can only ever hold a subset and nearly every L1
    // miss must also miss the L2. The conservation law — every L1
    // miss is exactly one L2 hit or one L2 miss — must hold anyway.
    TwoLevelCache two(
        split(geom(8, 4, 2), geom(2, 4, 1), HierarchyOrg::SplitL2));
    Rng rng(11);
    for (int i = 0; i < 40000; ++i) {
        two.access(rng.below(32 * 1024) & ~3ULL,
                   static_cast<RefKind>(rng.below(3)));
    }
    const HierarchyStats &s = two.stats();
    EXPECT_GT(s.l1Misses, 0u);
    EXPECT_EQ(s.l2Hits + s.l2Misses, s.l1Misses);
    // The inverted hierarchy mostly forwards to memory.
    EXPECT_GT(s.l2Misses, s.l2Hits);
}

TEST(TwoLevelCache, OneWayL2CapturesConflictFreeReuse)
{
    // 1-way (direct-mapped) L2 behind tiny L1s: the L2 still absorbs
    // L1 capacity misses whose lines do not conflict in the L2, and
    // the L1-miss conservation law holds on the edge associativity.
    TwoLevelCache two(
        split(geom(1, 4, 1), geom(32, 8, 1), HierarchyOrg::SplitL2));
    for (int round = 0; round < 20; ++round) {
        // An 8-KB stride-16B sweep: far beyond the 1-KB L1s, well
        // inside the 32-KB direct-mapped L2, no L2 conflicts.
        for (std::uint64_t addr = 0; addr < 8 * 1024; addr += 16)
            two.access(addr, RefKind::Load);
    }
    const HierarchyStats &s = two.stats();
    EXPECT_EQ(s.l2Hits + s.l2Misses, s.l1Misses);
    EXPECT_GT(s.l2Hits, 0u);
    // After the compulsory first round every L1 miss hits the L2.
    EXPECT_LE(s.l2Misses, s.l1Misses / 10);
}

TEST(TwoLevelCache, L2WinsWhenTheWorkingSetFitsIt)
{
    // A working set between the L1 and L2 capacities is exactly
    // where an L2 pays off: (reuse-free streams can even lose, since
    // the L2's longer fill line costs more per memory miss.)
    Rng rng(9);
    std::vector<std::pair<std::uint64_t, RefKind>> refs;
    for (int i = 0; i < 60000; ++i) {
        // 48-KB hot set: misses the 4-KB L1s, fits the 64-KB L2.
        refs.push_back({rng.below(48 * 1024) & ~3ULL,
                        static_cast<RefKind>(rng.below(3))});
    }
    TwoLevelCache without(
        split(geom(4, 4, 2), geom(64, 8, 4), HierarchyOrg::Split));
    TwoLevelCache with(
        split(geom(4, 4, 2), geom(64, 8, 4), HierarchyOrg::SplitL2));
    for (const auto &[addr, kind] : refs) {
        without.access(addr, kind);
        with.access(addr, kind);
    }
    EXPECT_LT(with.stats().stallCycles, without.stats().stallCycles);
    EXPECT_EQ(with.stats().l1Misses, without.stats().l1Misses);
}

} // namespace
} // namespace oma
