/**
 * @file
 * Property tests on cache-simulator invariants.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

/** A mixed random/sequential/looping address stream. */
std::vector<std::uint64_t>
mixedStream(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::uint64_t> addrs;
    addrs.reserve(n);
    std::uint64_t seq = 0;
    while (addrs.size() < n) {
        const double mode = rng.uniform();
        if (mode < 0.4) {
            // Sequential run.
            const std::uint64_t len = rng.range(4, 32);
            for (std::uint64_t i = 0; i < len && addrs.size() < n; ++i) {
                addrs.push_back(seq);
                seq += 4;
            }
        } else if (mode < 0.8) {
            // Hot working set.
            addrs.push_back(rng.below(512) * 4);
        } else {
            // Cold scatter.
            addrs.push_back(rng.below(1 << 20) * 4);
        }
    }
    return addrs;
}

std::uint64_t
missesFor(const CacheGeometry &geom,
          const std::vector<std::uint64_t> &addrs)
{
    Cache cache(geom);
    for (std::uint64_t a : addrs)
        cache.access(a, RefKind::Load);
    return cache.stats().totalMisses();
}

class StreamSeed : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    std::vector<std::uint64_t> addrs = mixedStream(GetParam(), 40000);
};

TEST_P(StreamSeed, LruInclusionAcrossWays)
{
    // With the set count fixed, an LRU cache with more ways misses
    // no more than one with fewer ways (the stack inclusion
    // property).
    for (std::uint64_t sets : {16, 64}) {
        std::uint64_t prev = ~0ULL;
        for (std::uint64_t ways : {1, 2, 4, 8}) {
            const CacheGeometry geom(sets * 16 * ways, 16, ways);
            const std::uint64_t misses = missesFor(geom, addrs);
            EXPECT_LE(misses, prev)
                << geom.describe() << " sets=" << sets;
            prev = misses;
        }
    }
}

TEST_P(StreamSeed, FullyAssociativeLruMonotoneInCapacity)
{
    std::uint64_t prev = ~0ULL;
    for (std::uint64_t lines : {4, 8, 16, 32, 64}) {
        const std::uint64_t misses =
            missesFor(CacheGeometry(lines * 16, 16, lines), addrs);
        EXPECT_LE(misses, prev);
        prev = misses;
    }
}

TEST_P(StreamSeed, CompulsoryMissesIndependentOfGeometry)
{
    // Every cache sees the same distinct lines, so compulsory misses
    // must agree across geometries with the same line size.
    Cache ca(CacheGeometry(2048, 16, 1));
    Cache cb(CacheGeometry(16384, 16, 8));
    for (std::uint64_t addr : addrs) {
        ca.access(addr, RefKind::Load);
        cb.access(addr, RefKind::Load);
    }
    EXPECT_EQ(ca.stats().compulsoryMisses, cb.stats().compulsoryMisses);
}

TEST_P(StreamSeed, MissesNeverBelowCompulsory)
{
    Cache cache(CacheGeometry(64 * 1024, 16, 4));
    for (std::uint64_t addr : addrs)
        cache.access(addr, RefKind::Load);
    EXPECT_GE(cache.stats().totalMisses(),
              cache.stats().compulsoryMisses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamSeed,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace oma
