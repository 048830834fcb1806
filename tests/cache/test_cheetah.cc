/**
 * @file
 * Tests for the Cheetah one-pass LRU engine, including equivalence
 * with the direct cache simulator.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "cache/cheetah.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

std::vector<std::uint64_t>
randomStream(std::uint64_t seed, std::size_t n, std::uint64_t span)
{
    Rng rng(seed);
    std::vector<std::uint64_t> addrs(n);
    for (auto &a : addrs)
        a = rng.below(span) & ~3ULL;
    return addrs;
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

TEST(Cheetah, SimpleStackDistances)
{
    const std::vector<CacheGeometry> geoms = waysColumn(1, 16, 4);
    Cheetah sim(geoms);
    // A B A -> A misses, B misses, A hits at depth 1.
    sim.access(0x00, RefKind::Load);
    sim.access(0x10, RefKind::Load);
    sim.access(0x00, RefKind::Load);
    for (const CacheGeometry &geom : geoms)
        EXPECT_EQ(sim.stats(geom).totalAccesses(), 3u);
    // 1 way: the re-reference misses; 2 and 4 ways: it hits.
    EXPECT_EQ(sim.stats(geoms[0]).totalMisses(), 3u);
    EXPECT_EQ(sim.stats(geoms[1]).totalMisses(), 2u);
    EXPECT_EQ(sim.stats(geoms[2]).totalMisses(), 2u);
    EXPECT_EQ(sim.compulsoryMisses(), 2u);
}

TEST(Cheetah, MissesMonotoneInWays)
{
    const std::vector<CacheGeometry> geoms = waysColumn(16, 16, 8);
    Cheetah sim(geoms);
    for (std::uint64_t addr : randomStream(3, 50000, 1 << 16))
        sim.access(addr, RefKind::Load);
    std::uint64_t prev = ~0ULL;
    for (const CacheGeometry &geom : geoms) {
        EXPECT_LE(sim.stats(geom).totalMisses(), prev);
        prev = sim.stats(geom).totalMisses();
    }
}

class CheetahEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(CheetahEquivalence, MatchesDirectLruSimulatorExactly)
{
    const auto [sets, seed] = GetParam();
    const std::vector<CacheGeometry> geoms = waysColumn(sets, 16, 8);
    Cheetah sim(geoms);

    std::vector<Cache> direct(geoms.begin(), geoms.end());

    Rng kinds(seed + 100);
    for (std::uint64_t addr : randomStream(seed, 30000, 1 << 18)) {
        const RefKind kind =
            kinds.chance(0.25) ? RefKind::Store : RefKind::Load;
        sim.access(addr, kind);
        for (auto &cache : direct)
            cache.access(addr, kind);
    }

    for (std::size_t i = 0; i < geoms.size(); ++i) {
        const CacheStats got = sim.stats(geoms[i]);
        const CacheStats &want = direct[i].stats();
        SCOPED_TRACE(geoms[i].describe());
        for (unsigned k = 0; k < numRefKinds; ++k) {
            EXPECT_EQ(got.accesses[k], want.accesses[k]);
            EXPECT_EQ(got.misses[k], want.misses[k]);
        }
        EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CheetahEquivalence,
    ::testing::Combine(::testing::Values(1u, 8u, 64u, 256u),
                       ::testing::Values(11u, 12u, 13u)));

TEST(Cheetah, FullyAssociativeModeSweepsTlbSizes)
{
    // One set: every fully-associative LRU structure of 1..64
    // entries in one pass, as a TLB-size sweep would use it (one
    // 4-byte line per key).
    const std::vector<CacheGeometry> geoms = waysColumn(1, 4, 64);
    Cheetah sim(geoms);
    Rng rng(9);
    for (int i = 0; i < 20000; ++i)
        sim.access(rng.zipf(256, 1.0) * 4, RefKind::Load);

    std::uint64_t prev = ~0ULL;
    for (const CacheGeometry &geom : geoms) {
        const std::uint64_t misses = sim.stats(geom).totalMisses();
        EXPECT_LE(misses, prev);
        EXPECT_GE(misses, sim.compulsoryMisses());
        prev = misses;
    }
    EXPECT_LE(sim.compulsoryMisses(), 256u);
}

TEST(Cheetah, AccessCountsAreExact)
{
    const std::vector<CacheGeometry> geoms = waysColumn(4, 16, 2);
    Cheetah sim(geoms);
    for (int i = 0; i < 123; ++i)
        sim.access(i * 4, RefKind::IFetch);
    for (const CacheGeometry &geom : geoms)
        EXPECT_EQ(sim.stats(geom).totalAccesses(), 123u);
}

TEST(CheetahDeath, WaysOutOfRange)
{
    Cheetah sim(waysColumn(4, 16, 2));
    sim.access(0, RefKind::Load);
    EXPECT_EQ(sim.stats(CacheGeometry(4 * 16 * 2, 16, 2)).totalMisses(),
              1u);
    // More ways, another set count or another line size than the
    // pass tracks. The result is discarded on purpose: the call must
    // die first.
    EXPECT_DEATH((void)sim.stats(CacheGeometry(4 * 16 * 4, 16, 4)),
                 "out of range");
    EXPECT_DEATH((void)sim.stats(CacheGeometry(8 * 16, 16, 1)),
                 "out of range");
    EXPECT_DEATH((void)sim.stats(CacheGeometry(4 * 32, 32, 1)),
                 "out of range");
}

} // namespace
} // namespace oma
