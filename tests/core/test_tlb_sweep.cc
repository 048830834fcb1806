/**
 * @file
 * Tapeworm-style TLB measurement: many TLB configurations against one
 * reference stream, as the TLB slots of a ComponentSweep replaying a
 * RecordedTrace with its OS page invalidations pinned in place.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/sweep.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

MemRef
userRef(std::uint64_t vaddr, std::uint32_t asid)
{
    MemRef r;
    r.vaddr = vaddr;
    r.asid = asid;
    r.kind = RefKind::Load;
    r.mapped = true;
    return r;
}

RecordedTrace
zipfPageStream(std::uint64_t seed, std::size_t n, std::uint64_t pages)
{
    Rng rng(seed);
    RecordedTrace trace;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t page = rng.zipf(pages, 1.0);
        trace.append(userRef(0x01000000 + page * pageBytes,
                             1 + std::uint32_t(rng.below(2))));
    }
    return trace;
}

/** Sweep @p trace over one TLB slot per geometry of @p geoms. */
SweepResult
sweepTlbs(const std::vector<TlbGeometry> &geoms,
          const RecordedTrace &trace)
{
    return ComponentSweep({}, {}, geoms).run(trace, 2);
}

TEST(Tapeworm, SameConfigTwiceGivesIdenticalStats)
{
    const SweepResult r =
        sweepTlbs({TlbGeometry::fullyAssoc(32),
                   TlbGeometry::fullyAssoc(32)},
                  zipfPageStream(5, 30000, 256));
    const MmuStats &s0 = r.tlb(0).stats;
    const MmuStats &s1 = r.tlb(1).stats;
    for (unsigned c = 0; c < numMissClasses; ++c) {
        EXPECT_EQ(s0.counts[c], s1.counts[c]);
        EXPECT_EQ(s0.cycles[c], s1.cycles[c]);
    }
}

TEST(Tapeworm, BiggerTlbNeverServicesMoreGeometryCycles)
{
    std::vector<TlbGeometry> geoms;
    for (std::uint64_t entries : {16, 32, 64, 128, 256})
        geoms.push_back(TlbGeometry::fullyAssoc(entries));
    const SweepResult r =
        sweepTlbs(geoms, zipfPageStream(7, 60000, 512));
    std::uint64_t prev = ~0ULL;
    for (std::size_t i = 0; i < r.tlbCount(); ++i) {
        const std::uint64_t cycles =
            r.tlb(i).stats.geometryDependentCycles();
        EXPECT_LE(cycles, prev) << "config " << i;
        prev = cycles;
    }
}

TEST(Tapeworm, PageFaultsIdenticalAcrossConfigs)
{
    const SweepResult r =
        sweepTlbs({TlbGeometry::fullyAssoc(16),
                   TlbGeometry::fullyAssoc(256)},
                  zipfPageStream(9, 30000, 300));
    EXPECT_EQ(r.tlb(0).stats.counts[unsigned(MissClass::PageFault)],
              r.tlb(1).stats.counts[unsigned(MissClass::PageFault)]);
}

TEST(Tapeworm, InvalidationBroadcasts)
{
    RecordedTrace trace;
    const MemRef r = userRef(0x2000, 1);
    trace.append(r);
    trace.recordInvalidation(vpnOf(0x2000), 1, false);
    trace.append(r);
    const SweepResult swept =
        sweepTlbs({TlbGeometry::fullyAssoc(64), TlbGeometry(64, 4)},
                  trace);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(swept.tlb(i).stats.counts[unsigned(
                      MissClass::InvalidFault)],
                  1u)
            << i;
    }
}

} // namespace
} // namespace oma
