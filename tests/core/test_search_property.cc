/**
 * @file
 * Property tests on the allocation search: completeness of the
 * enumeration, budget monotonicity, and restriction consistency.
 */

#include <gtest/gtest.h>

#include "core/search_strategy.hh"
#include "support/rng.hh"

namespace oma
{
namespace
{

/** Synthetic tables with pseudo-random (but deterministic) CPIs. */
ComponentCpiTables
randomTables(std::uint64_t seed)
{
    ConfigSpace space;
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    Rng rng(seed);
    for (std::size_t i = 0; i < tables.tlbGeoms.size(); ++i)
        tables.tlbCpi.push_back(0.001 + 0.2 * rng.uniform());
    for (std::size_t i = 0; i < tables.icacheGeoms.size(); ++i)
        tables.icacheCpi.push_back(0.01 + 0.6 * rng.uniform());
    for (std::size_t i = 0; i < tables.dcacheGeoms.size(); ++i)
        tables.dcacheCpi.push_back(0.01 + 0.6 * rng.uniform());
    return tables;
}

class SearchSeed : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    ComponentCpiTables tables = randomTables(GetParam());
    AreaModel area;
};

TEST_P(SearchSeed, EnumerationIsComplete)
{
    // The exhaustive search must return exactly the combinations
    // whose summed area fits the budget — no more, no fewer.
    const double budget = 150000.0;
    const SearchSpace space(tables, area, budget);
    const auto ranked = ExhaustiveStrategy().search(space).allocations;

    std::size_t expected = 0;
    for (const auto &tlb : tables.tlbGeoms) {
        const double ta = area.tlbArea(tlb);
        for (const auto &ic : tables.icacheGeoms) {
            const double ia = area.cacheArea(ic);
            if (ta + ia > budget)
                continue;
            for (const auto &dc : tables.dcacheGeoms) {
                if (ta + ia + area.cacheArea(dc) <= budget)
                    ++expected;
            }
        }
    }
    EXPECT_EQ(ranked.size(), expected);
}

TEST_P(SearchSeed, BestCpiMonotoneInBudget)
{
    double prev = 1e18;
    for (double budget : {60000.0, 100000.0, 180000.0, 300000.0,
                          600000.0}) {
        const SearchSpace space(tables, area, budget);
        const auto ranked =
            ExhaustiveStrategy().search(space).allocations;
        if (ranked.empty())
            continue;
        EXPECT_LE(ranked.front().cpi, prev + 1e-12) << budget;
        prev = ranked.front().cpi;
    }
}

TEST_P(SearchSeed, RestrictionIsASubset)
{
    const SearchSpace full_space(tables, area, 250000.0, 8);
    const SearchSpace restricted_space(tables, area, 250000.0, 2);
    const auto full = ExhaustiveStrategy().search(full_space).allocations;
    const auto restricted =
        ExhaustiveStrategy().search(restricted_space).allocations;
    EXPECT_LT(restricted.size(), full.size());
    // Every restricted allocation appears in the full ranking with
    // the same CPI (spot-check the head).
    for (std::size_t i = 0; i < 5 && i < restricted.size(); ++i) {
        bool found = false;
        for (const auto &a : full) {
            if (a.tlb == restricted[i].tlb &&
                a.icache == restricted[i].icache &&
                a.dcache == restricted[i].dcache) {
                EXPECT_NEAR(a.cpi, restricted[i].cpi, 1e-12);
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << i;
    }
}

TEST_P(SearchSeed, BestAllocationBeatsEveryFeasibleNeighbour)
{
    // Local optimality spot check: no single-component swap inside
    // the budget improves on rank 1.
    const SearchSpace space(tables, area, 250000.0);
    const auto ranked = ExhaustiveStrategy().search(space).allocations;
    ASSERT_FALSE(ranked.empty());
    const Allocation &best = ranked.front();

    for (std::size_t t = 0; t < tables.tlbGeoms.size(); ++t) {
        const double swapped_area = area.tlbArea(tables.tlbGeoms[t]) +
            area.cacheArea(best.icache) + area.cacheArea(best.dcache);
        if (swapped_area > 250000.0)
            continue;
        const double swapped_cpi = tables.baseCpi + tables.tlbCpi[t] +
            best.icacheCpi + best.dcacheCpi;
        EXPECT_GE(swapped_cpi + 1e-12, best.cpi);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchSeed,
                         ::testing::Values(201u, 202u, 203u));

} // namespace
} // namespace oma
