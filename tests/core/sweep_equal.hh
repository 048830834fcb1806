/**
 * @file
 * Bitwise equality for the core tests: two SweepResults agree on
 * every slot of every component kind and on the sweep totals, and
 * two allocations agree field by field.
 */

#ifndef OMA_TESTS_CORE_SWEEP_EQUAL_HH
#define OMA_TESTS_CORE_SWEEP_EQUAL_HH

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/component.hh"
#include "core/search.hh"
#include "core/sweep.hh"

namespace oma
{

/** Bitwise double equality (== would conflate -0.0 and 0.0). */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Every component kind, in declaration order. */
inline constexpr ComponentKind allComponentKinds[] = {
    ComponentKind::ICache, ComponentKind::DCache,
    ComponentKind::Tlb,    ComponentKind::Victim,
    ComponentKind::WriteBuffer, ComponentKind::Hierarchy};

/** How many slots of @p kind @p r swept. */
inline std::size_t
sweptCount(const SweepResult &r, ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::ICache:
        return r.icacheCount();
      case ComponentKind::DCache:
        return r.dcacheCount();
      case ComponentKind::Tlb:
        return r.tlbCount();
      case ComponentKind::Victim:
        return r.victimCount();
      case ComponentKind::WriteBuffer:
        return r.writeBufferCount();
      case ComponentKind::Hierarchy:
        return r.hierarchyCount();
    }
    return 0;
}

/** The counters @p r holds for the @p i -th swept slot of @p kind. */
inline ComponentCounters
sweptCounters(const SweepResult &r, ComponentKind kind, std::size_t i)
{
    switch (kind) {
      case ComponentKind::ICache:
        return r.icache(i).stats;
      case ComponentKind::DCache:
        return r.dcache(i).stats;
      case ComponentKind::Tlb:
        return r.tlb(i).stats;
      case ComponentKind::Victim:
        return r.victim(i).stats;
      case ComponentKind::WriteBuffer:
        return r.writeBuffer(i).stats;
      case ComponentKind::Hierarchy:
        return r.hierarchy(i).stats;
    }
    return {};
}

/**
 * @p a and @p b agree bitwise: instructions, references, the bits of
 * wbCpi and otherCpi, and every slot of every kind compared through
 * its store encoding (the codec writes every field). A failure names
 * the kind and index of the first slot that differs.
 */
inline void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.references, b.references);
    EXPECT_TRUE(sameBits(a.wbCpi, b.wbCpi))
        << "wbCpi " << a.wbCpi << " vs " << b.wbCpi;
    EXPECT_TRUE(sameBits(a.otherCpi, b.otherCpi))
        << "otherCpi " << a.otherCpi << " vs " << b.otherCpi;
    for (const ComponentKind kind : allComponentKinds) {
        const char *name = componentKindName(kind);
        ASSERT_EQ(sweptCount(a, kind), sweptCount(b, kind))
            << name << " slots";
        for (std::size_t i = 0; i < sweptCount(a, kind); ++i) {
            ASSERT_TRUE(
                encodeComponentCounters(sweptCounters(a, kind, i)) ==
                encodeComponentCounters(sweptCounters(b, kind, i)))
                << name << "[" << i << "] counters differ";
        }
    }
}

/** @p a and @p b agree field by field, doubles bitwise; a failure
 * names the first field that differs. */
inline testing::AssertionResult
sameAllocation(const Allocation &a, const Allocation &b)
{
    const std::pair<const char *, bool> fields[] = {
        {"rank", a.rank == b.rank},
        {"tlb", a.tlb == b.tlb},
        {"icache", a.icache == b.icache},
        {"dcache", a.dcache == b.dcache},
        {"victimEntries", a.victimEntries == b.victimEntries},
        {"wbEntries", a.wbEntries == b.wbEntries},
        {"hasL2", a.hasL2 == b.hasL2},
        {"unified", a.unified == b.unified},
        {"l2", a.l2 == b.l2},
        {"areaRbe", sameBits(a.areaRbe, b.areaRbe)},
        {"cpi", sameBits(a.cpi, b.cpi)},
        {"tlbCpi", sameBits(a.tlbCpi, b.tlbCpi)},
        {"icacheCpi", sameBits(a.icacheCpi, b.icacheCpi)},
        {"dcacheCpi", sameBits(a.dcacheCpi, b.dcacheCpi)},
        {"hierarchyCpi", sameBits(a.hierarchyCpi, b.hierarchyCpi)},
        {"wbCpi", sameBits(a.wbCpi, b.wbCpi)},
    };
    for (const auto &[field, same] : fields)
        if (!same)
            return testing::AssertionFailure() << field << " differs";
    return testing::AssertionSuccess();
}

/** Two rankings agree allocation by allocation (sameAllocation). */
inline void
expectSameAllocations(const std::vector<Allocation> &a,
                      const std::vector<Allocation> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(sameAllocation(a[i], b[i])) << "rank " << i + 1;
}

} // namespace oma

#endif // OMA_TESTS_CORE_SWEEP_EQUAL_HH
