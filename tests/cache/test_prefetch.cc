/**
 * @file
 * Tests for silent prefetch fills and the machine's next-line
 * instruction prefetcher.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "machine/machine.hh"
#include "tlb/mips_va.hh"

namespace oma
{
namespace
{

TEST(CachePrefetch, FillsWithoutCountingStats)
{
    Cache cache(CacheGeometry(1024, 16, 2));
    cache.prefetch(0x1000);
    EXPECT_EQ(cache.stats().totalAccesses(), 0u);
    EXPECT_EQ(cache.stats().totalMisses(), 0u);
    EXPECT_TRUE(cache.probe(0x1000));
    // The subsequent demand access hits.
    EXPECT_TRUE(cache.access(0x1000, RefKind::IFetch));
}

TEST(CachePrefetch, RefreshesLruOnResidentLine)
{
    Cache cache(CacheGeometry(32, 16, 2)); // one set, two ways
    cache.access(0x000, RefKind::Load); // A
    cache.access(0x100, RefKind::Load); // B (A is LRU)
    cache.prefetch(0x000);              // refresh A
    cache.access(0x200, RefKind::Load); // evicts B now
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x100));
}

TEST(CachePrefetch, CanPollute)
{
    Cache cache(CacheGeometry(32, 16, 1)); // 2 sets, direct-mapped
    cache.access(0x000, RefKind::Load);
    cache.prefetch(0x100); // same set: evicts the demand line
    EXPECT_FALSE(cache.probe(0x000));
    EXPECT_TRUE(cache.probe(0x100));
}

MemRef
fetch(std::uint64_t addr)
{
    MemRef r;
    r.vaddr = kseg0Base + addr;
    r.paddr = addr;
    r.kind = RefKind::IFetch;
    r.mode = Mode::Kernel;
    r.mapped = false;
    return r;
}

TEST(MachinePrefetch, SequentialStreamsMissHalfAsOften)
{
    MachineParams base = MachineParams::decstation3100();
    base.icache = CacheGeometry::fromWords(4 * 1024, 4, 1);
    MachineParams with = base;
    with.iPrefetchNextLine = true;

    Machine plain(base), prefetching(with);
    // A long, purely sequential fetch stream (cold every line).
    for (std::uint64_t i = 0; i < 40000; ++i) {
        plain.observe(fetch(0x100000 + i * 4));
        prefetching.observe(fetch(0x100000 + i * 4));
    }
    EXPECT_LT(prefetching.stalls().icacheStall,
              (plain.stalls().icacheStall * 6) / 10);
}

TEST(MachinePrefetch, NoEffectWhenDisabled)
{
    MachineParams base = MachineParams::decstation3100();
    Machine a(base), b(base);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        a.observe(fetch(i * 4));
        b.observe(fetch(i * 4));
    }
    EXPECT_EQ(a.stalls().icacheStall, b.stalls().icacheStall);
}

TEST(MachinePrefetch, HitsAreUnaffected)
{
    MachineParams with = MachineParams::decstation3100();
    with.iPrefetchNextLine = true;
    Machine machine(with);
    machine.observe(fetch(0x0)); // miss, prefetches line 1
    const std::uint64_t after_miss = machine.stalls().icacheStall;
    machine.observe(fetch(0x0)); // hit: no new stall, no prefetch
    EXPECT_EQ(machine.stalls().icacheStall, after_miss);
}

} // namespace
} // namespace oma
