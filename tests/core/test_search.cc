/**
 * @file
 * Tests for the configuration space and the exhaustive allocation
 * search over it.
 */

#include <gtest/gtest.h>

#include "core/search_strategy.hh"

namespace oma
{
namespace
{

/** Synthetic CPI tables with known structure. */
ComponentCpiTables
syntheticTables()
{
    ConfigSpace space;
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    tables.baseCpi = 1.2;
    // CPI contributions fall with capacity (and slightly with ways),
    // a clean monotone benefit model.
    auto cache_cpi = [](const CacheGeometry &g) {
        return 2000.0 / double(g.capacityBytes) +
            0.01 / double(g.assoc);
    };
    for (const auto &g : tables.icacheGeoms)
        tables.icacheCpi.push_back(cache_cpi(g));
    for (const auto &g : tables.dcacheGeoms)
        tables.dcacheCpi.push_back(0.5 * cache_cpi(g));
    for (const auto &g : tables.tlbGeoms)
        tables.tlbCpi.push_back(10.0 / double(g.entries));
    return tables;
}

/** Every allocation of @p tables within @p budget, best first. */
std::vector<Allocation>
rankAll(const ComponentCpiTables &tables, double budget = 250000.0,
        std::uint64_t max_cache_ways = 8)
{
    const SearchSpace space(tables, AreaModel(), budget, max_cache_ways);
    return ExhaustiveStrategy().search(space).allocations;
}

TEST(ConfigSpace, Table5TlbGrid)
{
    ConfigSpace space;
    const auto tlbs = space.tlbGeometries();
    // 4 sizes x 4 set-assoc ways + fully-assoc at 64 entries.
    EXPECT_EQ(tlbs.size(), 17u);
    int fa = 0;
    for (const auto &g : tlbs) {
        g.validate();
        fa += g.fullyAssociative();
    }
    EXPECT_EQ(fa, 1);
}

TEST(ConfigSpace, Table5CacheGrid)
{
    ConfigSpace space;
    const auto caches = space.cacheGeometries();
    // 5 sizes x 6 lines x 4 ways, minus shapes with < 1 set:
    // 2-KB @ 32-word lines supports only 1..16 ways -> all 4 fit
    // (2048 / 128 = 16 lines >= 8 ways)... every combination is
    // realizable, so 120 configurations.
    EXPECT_EQ(caches.size(), 120u);
    for (const auto &g : caches)
        g.validate();
}

TEST(ConfigSpace, AssocRestrictionFilters)
{
    ConfigSpace space;
    EXPECT_EQ(space.cacheGeometries(2).size(), 60u);
    EXPECT_EQ(space.cacheGeometries(1).size(), 30u);
}

TEST(ExhaustiveStrategy, EverythingWithinBudget)
{
    const AreaModel area;
    const auto ranked = rankAll(syntheticTables());
    ASSERT_FALSE(ranked.empty());
    for (const auto &a : ranked) {
        EXPECT_LE(a.areaRbe, 250000.0);
        // Area recomputes consistently.
        const double recomputed = area.tlbArea(a.tlb) +
            area.cacheArea(a.icache) + area.cacheArea(a.dcache);
        EXPECT_NEAR(a.areaRbe, recomputed, 1e-6);
    }
}

TEST(ExhaustiveStrategy, SortedByCpiAndRanked)
{
    const auto ranked = rankAll(syntheticTables());
    for (std::size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_LE(ranked[i - 1].cpi, ranked[i].cpi);
        EXPECT_EQ(ranked[i].rank, i + 1);
    }
}

TEST(ExhaustiveStrategy, CpiIsSumOfComponents)
{
    const ComponentCpiTables tables = syntheticTables();
    const auto ranked = rankAll(tables);
    for (std::size_t i = 0; i < std::min<std::size_t>(50,
                                                      ranked.size());
         ++i) {
        const Allocation &a = ranked[i];
        EXPECT_NEAR(a.cpi,
                    tables.baseCpi + a.tlbCpi + a.icacheCpi +
                        a.dcacheCpi,
                    1e-12);
    }
}

TEST(ExhaustiveStrategy, PrefersBigCheapTlbWhenBenefitIsMonotone)
{
    // With the synthetic benefit model (TLB CPI ~ 1/entries) and the
    // MQF costs (big set-associative TLBs are cheap), the best
    // allocation must use a 512-entry TLB — the paper's Table 6
    // conclusion.
    const auto ranked = rankAll(syntheticTables());
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().tlb.entries, 512u);
}

TEST(ExhaustiveStrategy, AssocRestrictionRaisesBestCpi)
{
    // Table 7: restricting cache associativity to 2 ways cannot give
    // a better optimum than the unrestricted search.
    const auto unrestricted = rankAll(syntheticTables(), 250000.0, 8);
    const auto restricted = rankAll(syntheticTables(), 250000.0, 2);
    ASSERT_FALSE(unrestricted.empty());
    ASSERT_FALSE(restricted.empty());
    EXPECT_LE(unrestricted.front().cpi, restricted.front().cpi);
    for (const auto &a : restricted) {
        EXPECT_LE(a.icache.assoc, 2u);
        EXPECT_LE(a.dcache.assoc, 2u);
    }
}

TEST(ExhaustiveStrategy, TightBudgetShrinksTheList)
{
    const auto big = rankAll(syntheticTables(), 250000.0);
    const auto small = rankAll(syntheticTables(), 60000.0);
    EXPECT_GT(big.size(), small.size());
    EXPECT_FALSE(small.empty());
    // A tight budget forces a worse best CPI.
    EXPECT_LT(big.front().cpi, small.front().cpi);
}

TEST(SearchSpaceDeath, RejectsNonPositiveBudget)
{
    const ComponentCpiTables tables = syntheticTables();
    EXPECT_EXIT(SearchSpace(tables, AreaModel(), 0.0),
                testing::ExitedWithCode(1), "positive");
}

} // namespace
} // namespace oma
