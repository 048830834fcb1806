/**
 * @file
 * Tests for the extended five-component allocation space: the
 * ConfigSpace extension axes enumerate correctly, the exhaustive
 * search ranks victim-cache and L2 organizations alongside the
 * classic grid under the 250,000-rbe budget, stripping the extension
 * axes restores the classic three-component ranking, and the
 * extended scoring loop stays thread-count invariant.
 */

#include <gtest/gtest.h>

#include "core/search_strategy.hh"
#include "tests/core/sweep_equal.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

TEST(ExtendedSearch, DefaultSpaceHasNoExtensions)
{
    const ConfigSpace space;
    EXPECT_FALSE(space.hasExtensions());
    EXPECT_TRUE(space.extensionSlots().empty());
    EXPECT_TRUE(space.victimConfigs().empty());
    EXPECT_TRUE(space.writeBufferConfigs().empty());
    EXPECT_TRUE(space.hierarchyConfigs().empty());
}

TEST(ExtendedSearch, ExtendedSpaceEnumeratesEveryAxis)
{
    const ConfigSpace space = ConfigSpace::extended();
    EXPECT_TRUE(space.hasExtensions());
    // Victim candidates pair every capacity with every buffer depth.
    EXPECT_EQ(space.victimConfigs().size(),
              space.cacheKBytes.size() * space.victimEntries.size());
    EXPECT_EQ(space.writeBufferConfigs().size(),
              space.wbEntries.size());
    // Hierarchies require the combined split-L1 capacity (the pair
    // totals 2*kb) strictly below the L2's.
    std::size_t hier = 0;
    for (std::uint64_t l2kb : space.l2KBytes)
        for (std::uint64_t kb : space.cacheKBytes)
            hier += 2 * kb < l2kb;
    EXPECT_EQ(space.hierarchyConfigs().size(), hier);
    for (const HierarchyParams &p : space.hierarchyConfigs()) {
        EXPECT_TRUE(p.hasL2());
        EXPECT_LT(p.l1i.capacityBytes + p.l1d.capacityBytes,
                  p.l2.capacityBytes);
    }
    // Slots come out in victim, write-buffer, hierarchy order.
    const auto slots = space.extensionSlots();
    ASSERT_EQ(slots.size(), space.victimConfigs().size() +
                  space.writeBufferConfigs().size() + hier);
    std::size_t i = 0;
    for (; i < space.victimConfigs().size(); ++i)
        EXPECT_EQ(slots[i].kind, ComponentKind::Victim);
    for (; i < slots.size() - hier; ++i)
        EXPECT_EQ(slots[i].kind, ComponentKind::WriteBuffer);
    for (; i < slots.size(); ++i)
        EXPECT_EQ(slots[i].kind, ComponentKind::Hierarchy);
}

/** A trimmed extended space measured on one short workload: big
 * enough to put victim, write-buffer and L2 candidates in front of
 * the allocator, small enough for a unit test. */
ComponentCpiTables
measureSmallExtendedTables()
{
    ConfigSpace space;
    space.cacheKBytes = {4, 8};
    space.lineWords = {4};
    space.cacheWays = {1, 2};
    space.tlbEntries = {64};
    space.tlbWays = {1, 2};
    space.victimEntries = {4};
    space.wbEntries = {2};
    space.l2KBytes = {32};

    ComponentSweep sweep(space.cacheGeometries(),
                         space.cacheGeometries(),
                         space.tlbGeometries());
    for (const ComponentSlot &slot : space.extensionSlots())
        sweep.addComponent(slot);
    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Mach,
                  42);
    const RecordedTrace trace = system.record(40000);
    std::vector<SweepResult> results;
    results.push_back(sweep.run(trace, 1));
    return ComponentCpiTables::average(
        results, MachineParams::decstation3100());
}

TEST(ExtendedSearch, RanksVictimAndL2OrganizationsWithinBudget)
{
    const ComponentCpiTables tables = measureSmallExtendedTables();
    ASSERT_EQ(tables.victimOptions.size(), 2u);
    ASSERT_EQ(tables.wbOptions.size(), 1u);
    ASSERT_EQ(tables.hierarchyOptions.size(), 2u);

    const SearchSpace space(tables, AreaModel(), 250000.0);
    const ExhaustiveStrategy exhaustive;
    const auto ranked = exhaustive.search(space, 1).allocations;
    ASSERT_FALSE(ranked.empty());

    // The paper's budget admits victim-cache and L2 organizations:
    // both kinds must appear in the in-budget ranking.
    bool has_victim = false, has_l2 = false;
    for (const Allocation &a : ranked) {
        EXPECT_LE(a.areaRbe, 250000.0);
        has_victim |= a.victimEntries != 0;
        has_l2 |= a.hasL2;
        if (a.hasL2) {
            // Hierarchy allocations score through hierarchyCpi, not
            // the split icache/dcache tables.
            EXPECT_TRUE(sameBits(a.icacheCpi, 0.0));
            EXPECT_TRUE(sameBits(a.dcacheCpi, 0.0));
        }
        // The write-buffer axis was swept, so every allocation
        // carries a depth.
        EXPECT_EQ(a.wbEntries, 2u);
    }
    EXPECT_TRUE(has_victim);
    EXPECT_TRUE(has_l2);

    // The extended scoring loop shards by TLB geometry exactly like
    // the classic one: identical output at any thread count.
    expectSameAllocations(ranked,
                          exhaustive.search(space, 4).allocations);
}

TEST(ExtendedSearch, StrippingExtensionsRestoresClassicRanking)
{
    const ComponentCpiTables tables = measureSmallExtendedTables();
    const SearchSpace extended_space(tables, AreaModel(), 250000.0);
    const auto extended =
        ExhaustiveStrategy().search(extended_space, 1).allocations;

    ComponentCpiTables classic = tables;
    classic.victimOptions.clear();
    classic.wbOptions.clear();
    classic.hierarchyOptions.clear();
    const SearchSpace classic_space(classic, AreaModel(), 250000.0);
    const auto stripped =
        ExhaustiveStrategy().search(classic_space, 1).allocations;

    // The stripped ranking is the paper's three-component search:
    // no extension fields anywhere, and strictly fewer candidates.
    ASSERT_FALSE(stripped.empty());
    EXPECT_LT(stripped.size(), extended.size());
    for (const Allocation &a : stripped) {
        EXPECT_FALSE(a.hasExtension());
        EXPECT_EQ(a.wbEntries, 0u);
        EXPECT_TRUE(sameBits(a.wbCpi, 0.0));
        EXPECT_TRUE(sameBits(a.hierarchyCpi, 0.0));
    }

    // Extension axes never perturb classic scores: every stripped
    // allocation reappears in the extended ranking with the swept
    // write buffer's depth and stall CPI added on top.
    const double wb_cpi = tables.wbOptions.front().cpi;
    for (std::size_t i = 0; i < std::min<std::size_t>(stripped.size(),
                                                      50);
         ++i) {
        const Allocation &s = stripped[i];
        bool found = false;
        for (const Allocation &e : extended) {
            if (e.hasL2 || e.unified || e.victimEntries != 0)
                continue;
            if (e.tlb.entries == s.tlb.entries &&
                e.tlb.assoc == s.tlb.assoc &&
                e.icache.capacityBytes == s.icache.capacityBytes &&
                e.icache.assoc == s.icache.assoc &&
                e.dcache.capacityBytes == s.dcache.capacityBytes &&
                e.dcache.assoc == s.dcache.assoc) {
                EXPECT_TRUE(sameBits(e.cpi, s.cpi + wb_cpi));
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << "stripped rank " << s.rank
                           << " missing from the extended ranking";
    }
}

} // namespace
} // namespace oma
