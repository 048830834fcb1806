/**
 * @file
 * Search strategies over the five-component allocation space.
 *
 * The exhaustive allocator scores every in-budget combination of
 * TLB, fetch-side organization (plain I-cache or direct-mapped L1 +
 * victim buffer), D-cache, write buffer and hierarchy replacement.
 * That is the gold standard — and on extended grids it is also
 * millions of evaluations per suite. This header separates the
 * scored space (SearchSpace: candidate encoding, exact area/CPI
 * evaluation reusing the precomputed per-geometry tables) from the
 * two strategies that walk it. They share no base class; each
 * caller constructs the one it runs.
 *
 *  - ExhaustiveStrategy: the classic enumeration, with
 *    *bitwise-unchanged* output (same emission order, same
 *    floating-point accumulation order, same tie order as a stable
 *    sort by CPI), always with monotone cost-bound
 *    pruning: the MQF area model is monotone in entries/ways/
 *    capacity, so a per-axis area floor can reject a whole subgrid
 *    before any candidate in it is scored. Pruning only ever skips
 *    candidates that the budget test would reject individually, so
 *    the ranking is the stable sort by CPI of every in-budget
 *    candidate (tests/core/test_search_strategy.cc holds it to that
 *    oracle). Asked for the top K only, it counts every in-budget
 *    candidate but keeps and materializes just K per TLB shard.
 *
 *  - AnnealingStrategy: seeded simulated annealing with typed
 *    mutation operators (grow/shrink capacity, step ways/line, swap
 *    the component kind, toggle the victim/write-buffer/L2 axes).
 *    Every draw flows through the sanctioned oma::MtRng shim
 *    (support/mt_rng.hh), so the trajectory — and therefore the
 *    returned allocation — is a pure function of the seed,
 *    independent of thread count and repetition.
 *
 * Both keep one contract: search() returns allocations that are a
 * pure function of (space, strategy configuration) — thread count,
 * repetition and the observation recorded into never change them —
 * and reports its work volume through the result's counters,
 * mirrored into the observation as `search/candidates` (full grid
 * size), `search/evaluations` (candidates actually costed) and
 * `search/pruned_subspaces` (subgrids rejected by an area floor
 * before scoring). search()'s `threads` gives the execution lanes
 * (0 = one per hardware thread, 1 = serial); its `observation`
 * defaults to the calling thread's scratch Observation::none().
 */

#ifndef OMA_CORE_SEARCH_STRATEGY_HH
#define OMA_CORE_SEARCH_STRATEGY_HH

#include <cstdint>
#include <vector>

#include "core/search.hh"
#include "obs/metrics.hh"

namespace oma
{

/**
 * One point in the five-component candidate space, encoded as axis
 * indices into a SearchSpace's option lists.
 *
 * A candidate is either a *split* organization (@c hier false:
 * @c primary indexes SearchSpace::iOptions and @c dcache indexes
 * SearchSpace::dOptions) or a *hierarchy* organization (@c hier
 * true: @c primary indexes SearchSpace::hierOptions and @c dcache
 * is ignored, kept zero by convention so candidates compare cleanly).
 */
struct SearchCandidate
{
    bool hier = false;
    std::size_t tlb = 0;     //!< Into the TLB geometry table.
    std::size_t primary = 0; //!< iOptions (split) / hierOptions (hier).
    std::size_t dcache = 0;  //!< dOptions; meaningful only when split.
    std::size_t wb = 0;      //!< Into wbOptions.
};

/**
 * The scored allocation space: every option along each axis with its
 * precomputed area and CPI contribution, the budget, and exact
 * evaluation of any candidate.
 *
 * The per-option areas are computed once per distinct geometry at
 * construction (exactly as the exhaustive loop always did), and
 * area()/cpi() replicate the exhaustive accumulation order
 * operation for operation, so a candidate scores bitwise-identically
 * no matter which strategy evaluates it.
 *
 * Construction also enforces the component-model invariant on
 * externally supplied tables: victim-cache options must wrap a
 * direct-mapped L1 (the associativity restriction is bypassed for
 * them on purpose, so a set-associative victim L1 would silently
 * leak through `max_cache_ways`).
 *
 * Holds references to @p tables; the tables must outlive the space.
 */
class SearchSpace
{
  public:
    /** Fetch-side option: a plain I-cache (index into icacheGeoms)
     * or a victim option (index into victimOptions). */
    struct IOption
    {
        std::size_t index;
        bool isVictim;
        double area;
        double cpi;
    };

    /** Data-side option: an eligible D-cache geometry. */
    struct DOption
    {
        std::size_t index; //!< Into dcacheGeoms.
        double area;
        double cpi;
    };

    /** Write-buffer option; a single free no-op when depths were not
     * swept, so the classic search shape is a degenerate case. */
    struct WbOption
    {
        std::uint64_t entries;
        double area;
        double cpi;
    };

    /** Hierarchy option replacing the split I/D pair wholesale. */
    struct HierOption
    {
        std::size_t index; //!< Into hierarchyOptions.
        double area;
        double cpi;
    };

    SearchSpace(const ComponentCpiTables &tables, const AreaModel &area,
                double budget_rbe, std::uint64_t max_cache_ways = 8);

    [[nodiscard]] const ComponentCpiTables &tables() const
    {
        return *_tables;
    }
    [[nodiscard]] double budget() const { return _budget; }
    [[nodiscard]] std::uint64_t maxCacheWays() const { return _maxWays; }

    [[nodiscard]] const std::vector<double> &tlbAreas() const
    {
        return _tlbAreas;
    }
    [[nodiscard]] const std::vector<IOption> &iOptions() const
    {
        return _iOptions;
    }
    [[nodiscard]] const std::vector<DOption> &dOptions() const
    {
        return _dOptions;
    }
    [[nodiscard]] const std::vector<WbOption> &wbOptions() const
    {
        return _wbOptions;
    }
    [[nodiscard]] const std::vector<HierOption> &hierOptions() const
    {
        return _hierOptions;
    }

    /** Size of the full candidate grid (feasible or not): one
     * candidate per (TLB, fetch-side x data-side | hierarchy, write
     * buffer) combination. */
    [[nodiscard]] std::uint64_t candidateCount() const;

    // ----- per-axis area floors (monotone cost-bound pruning) -----
    //
    // Each floor is the exact minimum over its axis's options
    // (+infinity for an empty axis). Pruning combines them in the
    // same left-to-right order a concrete candidate's area uses, so
    // the combined floor is itself the area of a concrete candidate
    // and floating-point monotonicity guarantees floor <= area(c)
    // for every candidate c containing the respective option —
    // pruning can never discard an in-budget candidate.

    [[nodiscard]] double minTlbArea() const { return _minTlb; }
    [[nodiscard]] double minIArea() const { return _minI; }
    [[nodiscard]] double minDArea() const { return _minD; }
    [[nodiscard]] double minWbArea() const { return _minWb; }
    [[nodiscard]] double minHierArea() const { return _minHier; }

    /** Exact area of @p c, replicating the exhaustive accumulation
     * order (tlb + fetch-side [+ dcache] + write buffer). */
    [[nodiscard]] double area(const SearchCandidate &c) const;

    /** Exact total CPI of @p c (baseCpi + per-axis contributions in
     * the exhaustive order). */
    [[nodiscard]] double cpi(const SearchCandidate &c) const;

    /** True when area(c) fits the budget. */
    [[nodiscard]] bool
    inBudget(const SearchCandidate &c) const
    {
        return area(c) <= _budget;
    }

    /** Full Allocation record of @p c — field for field what the
     * exhaustive enumeration emits (rank left zero). */
    [[nodiscard]] Allocation materialize(const SearchCandidate &c) const;

  private:
    const ComponentCpiTables *_tables;
    double _budget;
    std::uint64_t _maxWays;

    std::vector<double> _tlbAreas;
    std::vector<IOption> _iOptions;
    std::vector<DOption> _dOptions;
    std::vector<WbOption> _wbOptions;
    std::vector<HierOption> _hierOptions;

    double _minTlb;
    double _minI;
    double _minD;
    double _minWb;
    double _minHier;
};

/** Outcome of one strategy run over a SearchSpace. */
struct SearchResult
{
    /** Best-first allocations with 1-based ranks. Exhaustive: the
     * best top_k in-budget candidates (every one when top_k is 0).
     * Annealing: the single best candidate found (empty when no
     * feasible candidate exists). */
    std::vector<Allocation> allocations;
    /** In-budget candidates found — counted, not materialized:
     * exhaustive counts every one, annealing its allocations. */
    std::uint64_t inBudget = 0;
    /** Full grid size (SearchSpace::candidateCount()). */
    std::uint64_t candidates = 0;
    /** Candidates whose full area was actually computed. */
    std::uint64_t evaluations = 0;
    /** Subgrids rejected by an area floor before scoring. */
    std::uint64_t prunedSubspaces = 0;
};

/**
 * The classic exhaustive enumeration.
 *
 * Visits split allocations in (TLB, fetch-side, D-cache, write
 * buffer) order then hierarchy allocations in (TLB, hierarchy,
 * write buffer) order, sharded by TLB geometry, and ranks them by
 * CPI with ties in that emission order — the order a stable sort of
 * the unpruned enumeration gives, for every thread count (pruned
 * subgrids contain only over-budget candidates).
 *
 * Top-K contract: with @p top_k nonzero each TLB shard keeps only
 * its best top_k candidates and only the merged best top_k are
 * materialized, so memory is O(TLB shards x top_k) rather than
 * O(in-budget). The result is bitwise the first top_k of the full
 * (top_k 0) ranking, ranks included; SearchResult::inBudget and the
 * evaluation and pruning counts do not depend on top_k.
 */
class ExhaustiveStrategy
{
  public:
    /** @param top_k Allocations returned, best first (0 = every
     *        in-budget one). */
    explicit ExhaustiveStrategy(std::uint64_t top_k = 0) : _topK(top_k)
    {
    }

    [[nodiscard]] SearchResult
    search(const SearchSpace &space, unsigned threads = 0,
           obs::Observation &observation =
               obs::Observation::none()) const;

  private:
    std::uint64_t _topK;
};

/** Tuning knobs of the annealing strategy. All defaults are part of
 * the reproducibility contract: a default-constructed config with a
 * given seed always walks the same trajectory. */
struct AnnealingConfig
{
    /** Root seed; per-chain streams are derived with mix64 so chains
     * are independent yet jointly a pure function of this value. */
    std::uint64_t seed = 42;
    /** Independent restart chains (run in parallel, merged in chain
     * order, so the winner is thread-count invariant). */
    unsigned chains = 6;
    /** Mutation proposals per chain. */
    std::uint64_t iterations = 2000;
    /** Geometric cooling schedule endpoints, in CPI units. */
    double initialTemp = 0.05;
    double finalTemp = 1e-4;
};

/**
 * Seeded simulated annealing over the candidate space.
 *
 * Each chain starts from a random feasible candidate and proposes
 * typed mutations (capacity grow/shrink, line/ways steps, TLB
 * steps, write-buffer steps, victim toggle, organization swap, axis
 * jump), accepting by the Metropolis criterion under geometric
 * cooling. Options whose per-axis area floor already exceeds the
 * budget are pruned from the proposal distribution up front
 * (counted in `search/pruned_subspaces`). The merged best candidate
 * is polished with a deterministic coordinate-descent pass before
 * being materialized.
 *
 * Returns at most one allocation (rank 1). Deterministic per seed;
 * thread-count invariant.
 */
class AnnealingStrategy
{
  public:
    explicit AnnealingStrategy(const AnnealingConfig &config = {})
        : _config(config)
    {
    }

    [[nodiscard]] SearchResult
    search(const SearchSpace &space, unsigned threads = 0,
           obs::Observation &observation =
               obs::Observation::none()) const;

  private:
    AnnealingConfig _config;
};

} // namespace oma

#endif // OMA_CORE_SEARCH_STRATEGY_HH
