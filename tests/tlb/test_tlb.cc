/**
 * @file
 * Unit tests for the TLB lookup structure.
 */

#include <gtest/gtest.h>

#include "tlb/tlb.hh"

namespace oma
{
namespace
{

TEST(Tlb, MissThenHitAfterInsert)
{
    Tlb tlb(TlbGeometry(64, 0));
    EXPECT_FALSE(tlb.lookup(0x100, 1));
    tlb.insert(0x100, 1, false, false);
    EXPECT_TRUE(tlb.lookup(0x100, 1));
}

TEST(Tlb, AsidIsolation)
{
    Tlb tlb(TlbGeometry(64, 0));
    tlb.insert(0x100, 1, false, false);
    EXPECT_TRUE(tlb.lookup(0x100, 1));
    EXPECT_FALSE(tlb.lookup(0x100, 2));
}

TEST(Tlb, GlobalEntriesMatchAnyAsid)
{
    Tlb tlb(TlbGeometry(64, 0));
    tlb.insert(0xc0000, 1, /*global=*/true, false);
    EXPECT_TRUE(tlb.lookup(0xc0000, 1));
    EXPECT_TRUE(tlb.lookup(0xc0000, 2));
    EXPECT_TRUE(tlb.lookup(0xc0000, 63));
}

TEST(Tlb, DirtyBit)
{
    Tlb tlb(TlbGeometry(64, 0));
    tlb.insert(0x100, 1, false, /*dirty=*/false);
    EXPECT_FALSE(tlb.isDirty(0x100, 1));
    EXPECT_TRUE(tlb.setDirty(0x100, 1));
    EXPECT_TRUE(tlb.isDirty(0x100, 1));
    EXPECT_FALSE(tlb.setDirty(0x999, 1)); // not resident
}

TEST(Tlb, FullyAssociativeLruEviction)
{
    Tlb tlb(TlbGeometry(4, 0));
    for (std::uint64_t vpn = 0; vpn < 4; ++vpn)
        tlb.insert(vpn, 1, false, false);
    tlb.lookup(0, 1); // refresh vpn 0
    tlb.insert(100, 1, false, false); // evicts vpn 1 (oldest unused)
    EXPECT_TRUE(tlb.probe(0, 1));
    EXPECT_FALSE(tlb.probe(1, 1));
    EXPECT_TRUE(tlb.probe(2, 1));
    EXPECT_TRUE(tlb.probe(3, 1));
    EXPECT_TRUE(tlb.probe(100, 1));
}

TEST(Tlb, SetAssociativeIndexing)
{
    // 8 entries, 2-way: 4 sets; vpns congruent mod 4 share a set.
    Tlb tlb(TlbGeometry(8, 2));
    tlb.insert(0, 1, false, false);
    tlb.insert(4, 1, false, false);
    tlb.insert(8, 1, false, false); // third in set 0: evicts vpn 0
    EXPECT_FALSE(tlb.probe(0, 1));
    EXPECT_TRUE(tlb.probe(4, 1));
    EXPECT_TRUE(tlb.probe(8, 1));
    // Other sets untouched.
    tlb.insert(1, 1, false, false);
    EXPECT_TRUE(tlb.probe(1, 1));
}

TEST(Tlb, InsertRefreshesExistingEntry)
{
    Tlb tlb(TlbGeometry(4, 0));
    tlb.insert(7, 1, false, false);
    tlb.insert(7, 1, false, true); // re-walk marks dirty
    EXPECT_TRUE(tlb.isDirty(7, 1));
    // No duplicate entries: filling the rest still keeps capacity 4.
    tlb.insert(1, 1, false, false);
    tlb.insert(2, 1, false, false);
    tlb.insert(3, 1, false, false);
    EXPECT_TRUE(tlb.probe(7, 1));
}

TEST(Tlb, InvalidateSingleEntry)
{
    Tlb tlb(TlbGeometry(16, 4));
    tlb.insert(5, 1, false, false);
    tlb.invalidate(5, 1);
    EXPECT_FALSE(tlb.probe(5, 1));
}

TEST(Tlb, InvalidateAll)
{
    Tlb tlb(TlbGeometry(16, 4));
    for (std::uint64_t vpn = 0; vpn < 10; ++vpn)
        tlb.insert(vpn, 1, false, false);
    tlb.invalidateAll();
    for (std::uint64_t vpn = 0; vpn < 10; ++vpn)
        EXPECT_FALSE(tlb.probe(vpn, 1));
}

class TlbGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(TlbGeometrySweep, CapacityIsRespected)
{
    const auto [entries, ways] = GetParam();
    if (ways > entries)
        return;
    Tlb tlb(TlbGeometry(entries, ways));
    // Fill with vpns that spread across sets.
    for (std::uint64_t vpn = 0; vpn < entries; ++vpn)
        tlb.insert(vpn, 1, false, false);
    std::uint64_t resident = 0;
    for (std::uint64_t vpn = 0; vpn < entries; ++vpn)
        resident += tlb.probe(vpn, 1);
    EXPECT_EQ(resident, entries);
    // One more insert in each set must evict exactly one per set.
    for (std::uint64_t vpn = entries; vpn < entries + entries; ++vpn)
        tlb.insert(vpn, 1, false, false);
    resident = 0;
    for (std::uint64_t vpn = 0; vpn < 2 * entries; ++vpn)
        resident += tlb.probe(vpn, 1);
    EXPECT_EQ(resident, entries);
}

INSTANTIATE_TEST_SUITE_P(
    Table5Tlbs, TlbGeometrySweep,
    ::testing::Combine(::testing::Values(16u, 64u, 128u, 512u),
                       ::testing::Values(0u, 1u, 2u, 4u, 8u)));

} // namespace
} // namespace oma
