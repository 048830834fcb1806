/**
 * @file
 * Unit tests for the simulated machine's stall accounting.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "os/layout.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

MemRef
fetch(std::uint64_t addr)
{
    MemRef r;
    r.vaddr = kseg0Base + addr; // unmapped: no TLB involvement
    r.paddr = addr;
    r.kind = RefKind::IFetch;
    r.mode = Mode::Kernel;
    r.mapped = false;
    return r;
}

MemRef
data(std::uint64_t addr, RefKind kind)
{
    MemRef r = fetch(addr);
    r.kind = kind;
    return r;
}

MachineParams
smallMachine()
{
    MachineParams p = MachineParams::decstation3100();
    p.icache = CacheGeometry::fromWords(1024, 4, 1);
    p.dcache = CacheGeometry::fromWords(1024, 4, 1);
    return p;
}

TEST(Machine, BaseCycleAccounting)
{
    Machine machine(smallMachine());
    // Two fetches of the same line: 1 miss, 1 hit.
    machine.observe(fetch(0x100));
    machine.observe(fetch(0x104));
    const StallCounters &s = machine.stalls();
    EXPECT_EQ(s.instructions, 2u);
    // 4-word line: penalty 6 + 3 = 9.
    EXPECT_EQ(s.icacheStall, 9u);
    EXPECT_EQ(machine.cycles(), 2u + 9u);
}

TEST(Machine, MissPenaltyFormula)
{
    MachineParams p = smallMachine();
    EXPECT_EQ(p.missPenalty(CacheGeometry::fromWords(1024, 1, 1)), 6u);
    EXPECT_EQ(p.missPenalty(CacheGeometry::fromWords(1024, 4, 1)), 9u);
    EXPECT_EQ(p.missPenalty(CacheGeometry::fromWords(1024, 16, 1)),
              21u);
    EXPECT_EQ(p.missPenalty(CacheGeometry::fromWords(1024, 32, 1)),
              37u);
}

TEST(Machine, LoadMissChargesDcache)
{
    Machine machine(smallMachine());
    machine.observe(data(0x200, RefKind::Load));
    EXPECT_EQ(machine.stalls().dcacheStall, 9u);
    machine.observe(data(0x200, RefKind::Load));
    EXPECT_EQ(machine.stalls().dcacheStall, 9u); // hit
}

TEST(Machine, StoreMissOnOneWordLineIsFree)
{
    MachineParams p = smallMachine();
    p.dcache = CacheGeometry::fromWords(1024, 1, 1);
    Machine machine(p);
    machine.observe(data(0x300, RefKind::Store));
    EXPECT_EQ(machine.stalls().dcacheStall, 0u);
    // But the written word is now resident.
    EXPECT_TRUE(machine.dcache().probe(0x300));
}

TEST(Machine, StoreMissOnWideLinePaysFetchOnWrite)
{
    Machine machine(smallMachine()); // 4-word lines
    machine.observe(data(0x300, RefKind::Store));
    EXPECT_EQ(machine.stalls().dcacheStall, 9u);
}

TEST(Machine, StoresFeedWriteBuffer)
{
    Machine machine(smallMachine());
    for (int i = 0; i < 16; ++i)
        machine.observe(data(0x0 + 4 * i, RefKind::Store));
    EXPECT_EQ(machine.writeBuffer().stores(), 16u);
}

TEST(Machine, UncachedStoreSkipsCaches)
{
    Machine machine(smallMachine());
    MemRef r;
    r.vaddr = layout::frameBufferBase;
    r.paddr = 0x5000000;
    r.kind = RefKind::Store;
    r.mapped = false;
    machine.observe(r);
    EXPECT_EQ(machine.dcache().stats().totalAccesses(), 0u);
    EXPECT_EQ(machine.writeBuffer().stores(), 1u);
}

TEST(Machine, UncachedLoadChargesFixedPenalty)
{
    MachineParams p = smallMachine();
    Machine machine(p);
    MemRef r;
    r.vaddr = layout::frameBufferBase;
    r.paddr = 0x5000000;
    r.kind = RefKind::Load;
    r.mapped = false;
    machine.observe(r);
    EXPECT_EQ(machine.stalls().dcacheStall, p.uncachedLoad);
}

TEST(Machine, MappedRefsGoThroughTheTlb)
{
    Machine machine(smallMachine());
    MemRef r;
    r.vaddr = 0x1000;
    r.paddr = 0x7000;
    r.asid = 1;
    r.kind = RefKind::Load;
    r.mode = Mode::User;
    r.mapped = true;
    machine.observe(r);
    EXPECT_EQ(machine.mmu().stats().translations, 1u);
    // First touch: page fault recorded, but not counted as stall.
    EXPECT_EQ(machine.stalls().tlbStall, 0u);
    EXPECT_GT(machine.mmu().stats().totalServiceCycles(), 0u);
}

TEST(Machine, BreakdownIdentity)
{
    Machine machine(smallMachine());
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t addr = rng.below(1 << 14) & ~3ULL;
        const RefKind kind = static_cast<RefKind>(rng.below(3));
        machine.observe(kind == RefKind::IFetch
                            ? fetch(addr)
                            : data(addr, kind));
    }
    const StallCounters &s = machine.stalls();
    EXPECT_EQ(s.cycles(), machine.cycles());
    const CpiBreakdown b = machine.breakdown(0.25);
    const double instr = double(s.instructions);
    EXPECT_NEAR(b.cpi,
                1.0 + double(s.icacheStall + s.dcacheStall +
                             s.wbStall + s.tlbStall) /
                        instr +
                    0.25,
                1e-9);
    EXPECT_DOUBLE_EQ(b.other, 0.25);
}

TEST(Machine, RunConsumesFromSource)
{
    std::vector<MemRef> refs(500, fetch(0x0));
    VectorTraceSource source(refs);
    Machine machine(smallMachine());
    EXPECT_EQ(machine.run(source, 200), 200u);
    EXPECT_EQ(machine.run(source), 300u);
    EXPECT_EQ(machine.stalls().instructions, 500u);
}

TEST(Machine, Decstation3100Defaults)
{
    const MachineParams p = MachineParams::decstation3100();
    EXPECT_EQ(p.icache.capacityBytes, 64u * 1024);
    EXPECT_EQ(p.icache.lineWords(), 1u);
    EXPECT_EQ(p.icache.assoc, 1u);
    EXPECT_EQ(p.dcache.capacityBytes, 64u * 1024);
    EXPECT_TRUE(p.tlb.geom.fullyAssociative());
    EXPECT_EQ(p.tlb.geom.entries, 64u);
}

} // namespace
} // namespace oma
