/**
 * @file
 * Unit tests for cache and TLB geometry descriptions.
 */

#include <gtest/gtest.h>

#include "area/geometry.hh"

namespace oma
{
namespace
{

TEST(CacheGeometry, DerivedQuantities)
{
    const CacheGeometry g = CacheGeometry::fromWords(8192, 4, 2);
    EXPECT_EQ(g.capacityBytes, 8192u);
    EXPECT_EQ(g.lineBytes, 16u);
    EXPECT_EQ(g.lineWords(), 4u);
    EXPECT_EQ(g.numLines(), 512u);
    EXPECT_EQ(g.numSets(), 256u);
}

TEST(CacheGeometry, Describe)
{
    EXPECT_EQ(CacheGeometry::fromWords(16 * 1024, 8, 2).describe(),
              "16-KB 8-word 2-way");
    EXPECT_EQ(CacheGeometry::fromWords(2048, 1, 1).describe(),
              "2-KB 1-word 1-way");
}

TEST(CacheGeometry, Equality)
{
    EXPECT_TRUE(CacheGeometry(8192, 16, 2) == CacheGeometry(8192, 16, 2));
    EXPECT_FALSE(CacheGeometry(8192, 16, 2) == CacheGeometry(8192, 16, 4));
}

TEST(CacheGeometryDeath, RejectsNonPowerOfTwo)
{
    CacheGeometry bad(3000, 16, 1);
    EXPECT_EXIT(bad.validate(), testing::ExitedWithCode(1),
                "power of two");
}

TEST(CacheGeometryDeath, RejectsSubWordLine)
{
    CacheGeometry bad(4096, 2, 1);
    EXPECT_EXIT(bad.validate(), testing::ExitedWithCode(1), "line");
}

TEST(CacheGeometryDeath, RejectsZeroSets)
{
    // 2-KB cache with 32-word (128-B) lines and 32 ways needs 4 KB.
    // 16 KB of 8-word lines in 2^63 ways: lines x ways wraps to 0.
    for (const CacheGeometry &bad :
         {CacheGeometry::fromWords(2048, 32, 32),
          CacheGeometry::fromWords(16 * 1024, 8, 1ULL << 63)}) {
        EXPECT_EXIT(bad.validate(), testing::ExitedWithCode(1),
                    "at least one set");
    }
}

TEST(TlbGeometry, SetAssociative)
{
    const TlbGeometry g(512, 8);
    EXPECT_FALSE(g.fullyAssociative());
    EXPECT_EQ(g.ways(), 8u);
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.describe(), "512-entry 8-way");
}

TEST(TlbGeometry, FullyAssociative)
{
    const TlbGeometry g = TlbGeometry::fullyAssoc(64);
    EXPECT_TRUE(g.fullyAssociative());
    EXPECT_EQ(g.ways(), 64u);
    EXPECT_EQ(g.numSets(), 1u);
    EXPECT_EQ(g.describe(), "64-entry full");
}

TEST(TlbGeometryDeath, RejectsNonPowerOfTwo)
{
    TlbGeometry bad(100, 4);
    EXPECT_EXIT(bad.validate(), testing::ExitedWithCode(1),
                "power of two");
}

TEST(TlbGeometryDeath, RejectsMoreWaysThanEntries)
{
    TlbGeometry bad(4, 8);
    EXPECT_EXIT(bad.validate(), testing::ExitedWithCode(1),
                "at least one set");
}

class GeometryValidationSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(GeometryValidationSweep, AllTable5ConfigsAreValid)
{
    const auto [kb, line_words, ways] = GetParam();
    const CacheGeometry g =
        CacheGeometry::fromWords(kb * 1024, line_words, ways);
    if (g.capacityBytes >= g.lineBytes * g.assoc) {
        g.validate(); // must not exit
        EXPECT_GE(g.numSets(), 1u);
        EXPECT_EQ(g.numSets() * g.assoc * g.lineBytes, g.capacityBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table5, GeometryValidationSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u, 32u),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // namespace
} // namespace oma
