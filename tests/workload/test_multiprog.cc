/**
 * @file
 * Tests for the multiprogrammed workload source.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/cache.hh"
#include "workload/multiprog.hh"

namespace oma
{
namespace
{

WorkloadParams
light(const char *name)
{
    WorkloadParams wl;
    wl.name = name;
    wl.codeFootprint = 16 * 1024;
    wl.syscallPerInstr = 1.0 / 5000;
    return wl;
}

TEST(Multiprogram, RemapsAsidsIntoDisjointBlocks)
{
    MultiprogramSource mix(5000);
    mix.add(light("a"), OsKind::Mach, 1);
    mix.add(light("b"), OsKind::Mach, 2);

    std::set<std::uint32_t> user_asids;
    MemRef ref;
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(mix.next(ref));
        if (ref.asid != 0)
            user_asids.insert(ref.asid);
    }
    // Member 0 keeps its default ASIDs (1..15); member 1's sit in
    // 17..31. No collisions across blocks.
    for (std::uint32_t asid : user_asids) {
        EXPECT_TRUE((asid >= 1 && asid < 16) ||
                    (asid >= 17 && asid < 32))
            << asid;
    }
    bool block0 = false, block1 = false;
    for (std::uint32_t asid : user_asids) {
        block0 |= asid < 16;
        block1 |= asid >= 16;
    }
    EXPECT_TRUE(block0);
    EXPECT_TRUE(block1);
}

TEST(Multiprogram, QuantaAlternateMembers)
{
    MultiprogramSource mix(2000);
    mix.add(light("a"), OsKind::Ultrix, 1);
    mix.add(light("b"), OsKind::Ultrix, 2);
    // Track which member is running by its app ASID (1 vs 17).
    MemRef ref;
    int switches = 0;
    std::uint32_t last_block = 99;
    for (int i = 0; i < 300000; ++i) {
        mix.next(ref);
        if (ref.asid == 0)
            continue;
        const std::uint32_t block = ref.asid / 16;
        if (block != last_block && last_block != 99)
            ++switches;
        last_block = block;
    }
    // ~150k instructions at quantum 2000 => dozens of switches.
    EXPECT_GT(switches, 20);
}

TEST(Multiprogram, MembersUseDistinctFrames)
{
    MultiprogramSource mix(5000);
    mix.add(light("a"), OsKind::Ultrix, 1);
    mix.add(light("b"), OsKind::Ultrix, 2);
    // Same user vaddr (app text base) must map to different frames
    // for the two members (different seeds).
    std::set<std::uint64_t> frames;
    MemRef ref;
    for (int i = 0; i < 200000; ++i) {
        mix.next(ref);
        if (ref.isFetch() && ref.vaddr == layout::userTextBase)
            frames.insert(ref.paddr);
    }
    EXPECT_GE(frames.size(), 2u);
}

TEST(Multiprogram, InterferenceRaisesMissRatio)
{
    // Two time-shared jobs must miss more in a shared cache than one
    // job alone — the interference the paper's traces include.
    auto miss_ratio = [](bool multiprogrammed) {
        Cache cache(CacheGeometry::fromWords(16 * 1024, 4, 1));
        MemRef ref;
        if (multiprogrammed) {
            MultiprogramSource mix(20000);
            mix.add(light("a"), OsKind::Ultrix, 1);
            mix.add(light("b"), OsKind::Ultrix, 2);
            for (int i = 0; i < 600000; ++i) {
                mix.next(ref);
                if (ref.isFetch())
                    cache.access(ref.paddr, ref.kind);
            }
        } else {
            System one(light("a"), OsKind::Ultrix, 1);
            for (int i = 0; i < 600000; ++i) {
                one.next(ref);
                if (ref.isFetch())
                    cache.access(ref.paddr, ref.kind);
            }
        }
        return cache.stats().missRatio();
    };
    EXPECT_GT(miss_ratio(true), miss_ratio(false));
}

TEST(Multiprogram, InvalidateHookRemaps)
{
    MultiprogramSource mix(5000);
    WorkloadParams wl = light("a");
    wl.vmPerInstr = 1.0 / 4000;
    mix.add(wl, OsKind::Mach, 1);
    mix.add(wl, OsKind::Mach, 2);
    std::set<std::uint32_t> blocks;
    mix.setInvalidateHook(
        [&](std::uint64_t, std::uint32_t asid, bool) {
            if (asid != 0)
                blocks.insert(asid / 16);
        });
    MemRef ref;
    for (int i = 0; i < 500000; ++i)
        mix.next(ref);
    EXPECT_GE(blocks.size(), 2u);
}

TEST(MultiprogramDeath, EmptyMixRejected)
{
    MultiprogramSource mix;
    MemRef ref;
    EXPECT_EXIT(mix.next(ref), testing::ExitedWithCode(1),
                "at least one member");
}

TEST(MultiprogramDeath, TooManyMembers)
{
    MultiprogramSource mix;
    for (int i = 0; i < 4; ++i)
        mix.add(light("x"), OsKind::Ultrix, i + 1);
    EXPECT_EXIT(mix.add(light("y"), OsKind::Ultrix, 9),
                testing::ExitedWithCode(1), "ASID blocks");
}

} // namespace
} // namespace oma
