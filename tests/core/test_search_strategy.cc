/**
 * @file
 * Tests for the search strategies over the five-component space:
 * the exhaustive ranking is bitwise the stable sort by CPI of every
 * in-budget candidate (cost-bound pruning never discards one) at any
 * thread count, and the annealing strategy recovers the exhaustive
 * winner deterministically per seed while evaluating a small
 * fraction of the grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/search_strategy.hh"
#include "tests/core/sweep_equal.hh"

namespace oma
{
namespace
{

/** The classic grid with a clean monotone synthetic benefit model.
 * Unlike the fixture of core/test_search.cc, every geometry dimension
 * (capacity, line, ways, TLB ways) contributes to the CPI, so the
 * ranking has a unique winner and "the annealer recovers the
 * exhaustive winner" is a meaningful field-for-field comparison
 * rather than a lottery between tied co-optima. */
ComponentCpiTables
syntheticTables()
{
    ConfigSpace space;
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    tables.baseCpi = 1.2;
    auto cache_cpi = [](const CacheGeometry &g) {
        return 2000.0 / double(g.capacityBytes) +
            0.01 / double(g.assoc) + 0.07 / double(g.lineBytes);
    };
    for (const auto &g : tables.icacheGeoms)
        tables.icacheCpi.push_back(cache_cpi(g));
    for (const auto &g : tables.dcacheGeoms)
        tables.dcacheCpi.push_back(0.5 * cache_cpi(g));
    for (const auto &g : tables.tlbGeoms)
        tables.tlbCpi.push_back(10.0 / double(g.entries) +
                                0.013 / double(g.ways()));
    return tables;
}

/** The classic grid plus synthetic victim / write-buffer / L2
 * options, so every extension axis is in front of the strategies
 * without paying for a simulation in a unit test. */
ComponentCpiTables
syntheticExtendedTables()
{
    const ConfigSpace space = ConfigSpace::extended();
    ComponentCpiTables tables = syntheticTables();
    for (const VictimParams &p : space.victimConfigs()) {
        tables.victimOptions.push_back(
            {p, 1800.0 / double(p.l1.capacityBytes) +
                    0.05 / double(p.entries)});
    }
    for (const WriteBufferParams &p : space.writeBufferConfigs()) {
        tables.wbOptions.push_back({p, 0.2 / double(p.entries)});
    }
    for (const HierarchyParams &p : space.hierarchyConfigs()) {
        tables.hierarchyOptions.push_back(
            {p, 1500.0 / double(p.l1i.capacityBytes +
                                p.l2.capacityBytes)});
    }
    return tables;
}

/**
 * The test oracle for the exhaustive ranking: every in-budget
 * candidate in emission order (per TLB, split candidates by fetch
 * side, D-cache and write buffer, then hierarchy candidates by
 * hierarchy and write buffer), stable-sorted by CPI and ranked — no
 * pruning, sharding or top-K heap.
 */
std::vector<Allocation>
stableSortedRanking(const SearchSpace &space)
{
    std::vector<Allocation> emitted;
    const auto emit = [&](const SearchCandidate &c) {
        if (space.inBudget(c))
            emitted.push_back(space.materialize(c));
    };
    for (std::size_t t = 0; t < space.tlbAreas().size(); ++t) {
        for (std::size_t ip = 0; ip < space.iOptions().size(); ++ip)
            for (std::size_t dp = 0; dp < space.dOptions().size(); ++dp)
                for (std::size_t wp = 0; wp < space.wbOptions().size();
                     ++wp)
                    emit(SearchCandidate{false, t, ip, dp, wp});
        for (std::size_t hp = 0; hp < space.hierOptions().size(); ++hp)
            for (std::size_t wp = 0; wp < space.wbOptions().size(); ++wp)
                emit(SearchCandidate{true, t, hp, 0, wp});
    }
    std::stable_sort(emitted.begin(), emitted.end(),
                     [](const Allocation &x, const Allocation &y) {
                         return x.cpi < y.cpi;
                     });
    for (std::size_t r = 0; r < emitted.size(); ++r)
        emitted[r].rank = r + 1;
    return emitted;
}

constexpr double kBudget = 250000.0;

TEST(SearchSpace, CountsTheFullGrid)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    // 17 TLBs x 120 I-caches x 120 D-caches x 1 (no write-buffer
    // sweep), no hierarchy options.
    EXPECT_EQ(space.candidateCount(), 244800u);
    EXPECT_EQ(space.wbOptions().size(), 1u);
    EXPECT_TRUE(space.hierOptions().empty());

    // The count a request is admitted on, from the list sizes alone,
    // is the count its search reports (Table 7 ranks 2-way caches).
    const ComponentCpiTables extended = syntheticExtendedTables();
    for (const std::uint64_t ways : {8u, 2u}) {
        EXPECT_EQ(ConfigSpace().candidateCount(ways),
                  SearchSpace(tables, AreaModel(), kBudget, ways)
                      .candidateCount());
        EXPECT_EQ(ConfigSpace::extended().candidateCount(ways),
                  SearchSpace(extended, AreaModel(), kBudget, ways)
                      .candidateCount());
    }
    EXPECT_EQ(ConfigSpace::extended().candidateCount(8), 1061276u);
}

TEST(SearchSpace, MaterializeMatchesExhaustiveEmission)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto ranked = ExhaustiveStrategy().search(space).allocations;
    ASSERT_FALSE(ranked.empty());
    // Every in-budget candidate the space evaluates in-budget must
    // appear exactly once, and the best one must beat them all.
    EXPECT_TRUE(space.inBudget(SearchCandidate{false, 0, 0, 0, 0}));
}

TEST(ExhaustiveStrategy, ThreadCountInvariant)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const ExhaustiveStrategy strategy;
    expectSameAllocations(strategy.search(space, 1).allocations,
                          strategy.search(space, 4).allocations);
}

TEST(ExhaustiveStrategy, PruningOnlySkipsOverBudgetCandidates)
{
    // Property: on the classic and the extended grid, for a spread of
    // budgets (some tight enough to prune whole subgrids), the pruned
    // ranking is bitwise the unpruned oracle's, and pruning never
    // evaluates more candidates than the grid holds.
    const std::vector<std::pair<const char *, ComponentCpiTables>>
        fixtures = {{"classic", syntheticTables()},
                    {"extended", syntheticExtendedTables()}};
    for (const auto &[name, tables] : fixtures) {
        for (double budget : {30000.0, 60000.0, 120000.0, 250000.0}) {
            SCOPED_TRACE(testing::Message() << name << " " << budget);
            const SearchSpace space(tables, AreaModel(), budget);
            const SearchResult pruned = ExhaustiveStrategy().search(space);
            expectSameAllocations(pruned.allocations,
                                  stableSortedRanking(space));
            EXPECT_EQ(pruned.candidates, space.candidateCount());
            EXPECT_LE(pruned.evaluations, pruned.candidates);
        }
    }
    // A tight budget must actually exercise the floor rejections.
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace tight(tables, AreaModel(), 30000.0);
    EXPECT_GT(ExhaustiveStrategy().search(tight).prunedSubspaces, 0u);
}

TEST(ExhaustiveStrategy, LooseBudgetEvaluatesEverything)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), 1e12);
    const auto result = ExhaustiveStrategy().search(space);
    EXPECT_EQ(result.evaluations, result.candidates);
    EXPECT_EQ(result.prunedSubspaces, 0u);
    EXPECT_EQ(result.allocations.size(), result.candidates);
}

/** The classic grid plus write-buffer and hierarchy axes with CPIs
 * so coarse that most candidates tie: caches and hierarchies score by
 * capacity alone, TLBs by entries alone and both write-buffer depths
 * alike, so the ranking is decided by emission order inside long runs
 * of equal CPI, split and hierarchy candidates mixed. Every CPI is a
 * small dyadic fraction, so the sums are exact and ties are bitwise. */
ComponentCpiTables
tieHeavyTables()
{
    const ConfigSpace space = ConfigSpace::extended();
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    for (const auto &g : tables.icacheGeoms)
        tables.icacheCpi.push_back(g.capacityBytes >= 8192 ? 0.25 : 0.5);
    for (const auto &g : tables.dcacheGeoms)
        tables.dcacheCpi.push_back(g.capacityBytes >= 16384 ? 0.125
                                                             : 0.25);
    for (const auto &g : tables.tlbGeoms)
        tables.tlbCpi.push_back(g.entries >= 256 ? 0.0 : 0.0625);
    for (const std::uint64_t entries : {1u, 2u}) {
        WriteBufferParams p;
        p.entries = entries;
        tables.wbOptions.push_back({p, 0.0});
    }
    for (const HierarchyParams &p : space.hierarchyConfigs())
        tables.hierarchyOptions.push_back(
            {p, p.l1i.capacityBytes >= 4096 ? 0.375 : 0.5});
    return tables;
}

TEST(ExhaustiveStrategy, TopKIsThePrefixOfTheFullRanking)
{
    // Differential: for every fixture, K and lane count the top-K
    // search returns bitwise the first K allocations of the full
    // (K = 0) ranking, ranks included, while counting the same
    // in-budget candidates and doing the same evaluation and pruning
    // work.
    const std::vector<std::pair<const char *, ComponentCpiTables>>
        fixtures = {{"classic", syntheticTables()},
                    {"extended", syntheticExtendedTables()},
                    {"tie-heavy", tieHeavyTables()}};
    for (const auto &[name, tables] : fixtures) {
        SCOPED_TRACE(name);
        const SearchSpace space(tables, AreaModel(), kBudget);
        const SearchResult full = ExhaustiveStrategy().search(space, 4);
        const std::uint64_t n = full.allocations.size();
        ASSERT_GT(n, 20u);
        EXPECT_EQ(full.inBudget, n);
        for (const std::uint64_t k :
             {std::uint64_t(1), std::uint64_t(2), std::uint64_t(10),
              std::uint64_t(17), n - 1, n, n + 5}) {
            for (const unsigned threads : {1u, 4u}) {
                SCOPED_TRACE(testing::Message()
                             << "k=" << k << " threads=" << threads);
                const SearchResult top =
                    ExhaustiveStrategy(k).search(space, threads);
                EXPECT_EQ(top.inBudget, n);
                EXPECT_EQ(top.candidates, full.candidates);
                EXPECT_EQ(top.evaluations, full.evaluations);
                EXPECT_EQ(top.prunedSubspaces, full.prunedSubspaces);
                ASSERT_EQ(top.allocations.size(), std::min(k, n));
                for (std::size_t i = 0; i < top.allocations.size(); ++i)
                    ASSERT_TRUE(sameAllocation(top.allocations[i],
                                               full.allocations[i]))
                        << "rank " << i + 1;
            }
        }
    }
}

TEST(ExhaustiveStrategy, TieHeavyRankingFollowsEmissionOrder)
{
    // On the tie-heavy fixture most neighbours in the ranking share
    // their CPI; the order among them must be the emission order a
    // stable sort by CPI leaves (per TLB, split candidates by fetch
    // side, D-cache and write buffer, then hierarchy candidates by
    // hierarchy and write buffer) — pinned against an explicit stable
    // sort of the unpruned enumeration.
    const ComponentCpiTables tables = tieHeavyTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const std::vector<Allocation> emitted = stableSortedRanking(space);
    const SearchResult ranked = ExhaustiveStrategy().search(space, 4);
    ASSERT_EQ(ranked.allocations.size(), emitted.size());
    std::size_t ties = 0;
    std::size_t mixed_ties = 0;
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        ASSERT_TRUE(sameAllocation(ranked.allocations[i], emitted[i]))
            << "rank " << i + 1;
        if (i > 0 && sameBits(emitted[i].cpi, emitted[i - 1].cpi)) {
            ++ties;
            mixed_ties += emitted[i].hasL2 != emitted[i - 1].hasL2;
        }
    }
    EXPECT_GT(ties, emitted.size() / 2);
    // Some runs of equal CPI hold both split and hierarchy
    // candidates, so the split-before-hierarchy tie-break is pinned.
    EXPECT_GT(mixed_ties, 0u);
}

TEST(AnnealingStrategy, RecoversExhaustiveWinnerOnClassicGrid)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto exhaustive = ExhaustiveStrategy().search(space);
    ASSERT_FALSE(exhaustive.allocations.empty());
    const auto annealed = AnnealingStrategy().search(space);
    ASSERT_EQ(annealed.allocations.size(), 1u);
    EXPECT_TRUE(sameAllocation(annealed.allocations.front(),
                               exhaustive.allocations.front()));
    // The whole point: well under a tenth of the grid evaluated.
    EXPECT_LT(annealed.evaluations, annealed.candidates / 10);
    EXPECT_GT(annealed.evaluations, 0u);
}

TEST(AnnealingStrategy, RecoversExhaustiveWinnerOnExtendedGrid)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto exhaustive = ExhaustiveStrategy().search(space);
    ASSERT_FALSE(exhaustive.allocations.empty());
    const auto annealed = AnnealingStrategy().search(space);
    ASSERT_EQ(annealed.allocations.size(), 1u);
    EXPECT_TRUE(sameAllocation(annealed.allocations.front(),
                               exhaustive.allocations.front()));
    EXPECT_LT(annealed.evaluations, annealed.candidates / 10);
}

TEST(AnnealingStrategy, DeterministicAcrossThreadsAndRuns)
{
    const ComponentCpiTables tables = syntheticExtendedTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    AnnealingConfig config;
    config.seed = 7;
    const AnnealingStrategy strategy(config);
    const auto serial = strategy.search(space, 1);
    const auto wide = strategy.search(space, 4);
    const auto again = strategy.search(space, 1);
    expectSameAllocations(serial.allocations, wide.allocations);
    expectSameAllocations(serial.allocations, again.allocations);
    // The trajectory (not just the answer) is a pure function of
    // the seed: the evaluation count must agree too.
    EXPECT_EQ(serial.evaluations, wide.evaluations);
    EXPECT_EQ(serial.evaluations, again.evaluations);
}

TEST(AnnealingStrategy, DifferentSeedsConvergeToTheSameWinner)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget);
    const auto reference = AnnealingStrategy().search(space);
    ASSERT_EQ(reference.allocations.size(), 1u);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        AnnealingConfig config;
        config.seed = seed;
        const auto result = AnnealingStrategy(config).search(space);
        ASSERT_EQ(result.allocations.size(), 1u);
        EXPECT_TRUE(sameAllocation(result.allocations.front(),
                                   reference.allocations.front()));
    }
}

TEST(AnnealingStrategy, HonorsAssociativityRestriction)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), kBudget, 2);
    const auto exhaustive = ExhaustiveStrategy().search(space);
    const auto annealed = AnnealingStrategy().search(space);
    ASSERT_EQ(annealed.allocations.size(), 1u);
    const Allocation &best = annealed.allocations.front();
    EXPECT_LE(best.icache.assoc, 2u);
    EXPECT_LE(best.dcache.assoc, 2u);
    EXPECT_TRUE(sameAllocation(best, exhaustive.allocations.front()));
}

TEST(AnnealingStrategy, PruningNeverDiscardsTheOptimum)
{
    // Tight budgets prune many options from the proposal
    // distribution; the annealer must still land on the exhaustive
    // winner.
    const ComponentCpiTables tables = syntheticExtendedTables();
    for (double budget : {30000.0, 60000.0, 120000.0}) {
        SCOPED_TRACE(budget);
        const SearchSpace space(tables, AreaModel(), budget);
        const auto exhaustive = ExhaustiveStrategy().search(space);
        ASSERT_FALSE(exhaustive.allocations.empty());
        const auto annealed = AnnealingStrategy().search(space);
        ASSERT_EQ(annealed.allocations.size(), 1u);
        EXPECT_TRUE(sameAllocation(annealed.allocations.front(),
                                   exhaustive.allocations.front()));
        EXPECT_GT(annealed.prunedSubspaces, 0u);
    }
}

TEST(AnnealingStrategy, EmptyWhenNothingFits)
{
    const ComponentCpiTables tables = syntheticTables();
    const SearchSpace space(tables, AreaModel(), 1.0);
    EXPECT_TRUE(ExhaustiveStrategy().search(space).allocations.empty());
    const auto annealed = AnnealingStrategy().search(space);
    EXPECT_TRUE(annealed.allocations.empty());
    EXPECT_EQ(annealed.evaluations, 0u);
    EXPECT_GT(annealed.prunedSubspaces, 0u);
}

TEST(SearchSpaceDeath, RejectsSetAssociativeVictimL1)
{
    ComponentCpiTables tables = syntheticTables();
    VictimParams p;
    p.l1 = CacheGeometry::fromWords(8 * 1024, 4, 2); // two ways
    p.entries = 4;
    tables.victimOptions.push_back({p, 0.5});
    EXPECT_EXIT(SearchSpace(tables, AreaModel(), kBudget),
                testing::ExitedWithCode(1), "direct-mapped");
}

} // namespace
} // namespace oma
