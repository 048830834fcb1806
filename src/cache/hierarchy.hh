/**
 * @file
 * Cache-hierarchy models: unified L1 organizations and two-level
 * hierarchies.
 *
 * Table 1 shows that several contemporary processors (i486, Cyrix
 * 486, PowerPC 601) used *unified* on-chip caches, and the paper
 * notes that high-end parts would spend additional on-chip memory on
 * a *second-level* cache rather than larger primaries. These models
 * extend the cost/benefit vocabulary to both choices:
 *
 *  - UnifiedCache: one array serving instruction and data references
 *    (with the structural port conflict a unified L1 suffers when a
 *    fetch and a data access arrive in the same cycle);
 *  - TwoLevelCache: split L1s backed by a shared L2; L1 misses that
 *    hit in the L2 pay a short penalty, L2 misses pay the full
 *    memory penalty.
 */

#ifndef OMA_CACHE_HIERARCHY_HH
#define OMA_CACHE_HIERARCHY_HH

#include <string>

#include "cache/cache.hh"

namespace oma
{

/** Stall accounting of a hierarchy simulation. */
struct HierarchyStats
{
    std::uint64_t instructions = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1Misses = 0;   //!< Combined I+D L1 misses.
    std::uint64_t l2Hits = 0;     //!< L1 misses served by the L2.
    std::uint64_t l2Misses = 0;   //!< Went to memory.
    std::uint64_t portConflicts = 0; //!< Unified-L1 structural hazards.
    std::uint64_t stallCycles = 0;

    /** Call @p f(name, s.field...) for every counter, in store-payload
     * order, under its run-report name (CacheStats::forEachCounter). */
    template <class F, class... S>
    static void
    forEachCounter(F &&f, S &&...s)
    {
        f("instructions", s.instructions...);
        f("data_refs", s.dataRefs...);
        f("l1_misses", s.l1Misses...);
        f("l2_hits", s.l2Hits...);
        f("l2_misses", s.l2Misses...);
        f("port_conflicts", s.portConflicts...);
        f("stall_cycles", s.stallCycles...);
    }

    double
    cpiContribution() const
    {
        return instructions == 0
            ? 0.0
            : double(stallCycles) / double(instructions);
    }
};

/** Penalties of a hierarchy. */
struct HierarchyPenalties
{
    /** L1 miss served by the L2: first word + per extra word. */
    std::uint64_t l2FirstWord = 2;
    std::uint64_t l2PerWord = 0;
    /** L1/L2 miss served by memory (the paper's off-chip penalty). */
    std::uint64_t memFirstWord = 6;
    std::uint64_t memPerWord = 1;
    /** Extra cycle when a unified L1 serves fetch+data in one cycle. */
    std::uint64_t portConflict = 1;

    /** Append every behaviour-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.u64("hier.l2_first_word", l2FirstWord);
        fp.u64("hier.l2_per_word", l2PerWord);
        fp.u64("hier.mem_first_word", memFirstWord);
        fp.u64("hier.mem_per_word", memPerWord);
        fp.u64("hier.port_conflict", portConflict);
    }
};

/**
 * Full configuration of one hierarchy organization: either split L1
 * I/D caches backed by an optional unified L2 (TwoLevelCache), or one
 * unified L1 array serving both reference kinds (UnifiedCache, in
 * which case @c l1i names the unified array and @c l1d is ignored).
 *
 * A unified organization cannot also declare an L2: UnifiedCache
 * simulates a single array, so a `unified && hasL2` combination
 * would be simulated without the L2 yet its describe()/fingerprint
 * (and, before the search grew validate(), its area accounting)
 * would disagree about whether one exists. validate() rejects the
 * combination fatally; every consumer that admits externally built
 * params (makeComponent, the allocation search) calls it.
 */
struct HierarchyParams
{
    CacheParams l1i; //!< Also the unified array when @c unified.
    CacheParams l1d;
    CacheParams l2;
    bool hasL2 = false;
    bool unified = false;
    HierarchyPenalties penalties;

    /** Empty for a consistent organization, else why it is not
     * (`unified && hasL2`: a unified L1 has no split pair for an L2
     * to back; spend the area on the unified array instead). */
    [[nodiscard]] std::string check() const;

    /** Abort via fatal() with check()'s text on a contradictory
     * organization. */
    void validate() const;

    /** Append every behaviour-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.str("hier.l1i", "");
        l1i.fingerprint(fp);
        fp.str("hier.l1d", "");
        l1d.fingerprint(fp);
        fp.str("hier.l2", "");
        l2.fingerprint(fp);
        fp.flag("hier.has_l2", hasL2);
        fp.flag("hier.unified", unified);
        penalties.fingerprint(fp);
    }

    /** "8-KB I + 4-KB D + 32-KB L2" style description. */
    std::string describe() const;
};

/**
 * A unified L1 cache serving both reference kinds, modelling the
 * structural port conflict: every data reference contends with the
 * same-cycle instruction fetch.
 */
class UnifiedCache
{
  public:
    UnifiedCache(const CacheParams &params,
                 const HierarchyPenalties &penalties);

    /** Observe one reference (pass every fetch, load and store). */
    void access(std::uint64_t paddr, RefKind kind);

    const HierarchyStats &stats() const { return _stats; }
    const Cache &cache() const { return _cache; }

  private:
    Cache _cache;
    HierarchyPenalties _penalties;
    HierarchyStats _stats;
    std::uint64_t _penalty;
};

/**
 * Split L1 I/D caches backed by a unified L2 (optional: L2 capacity
 * of zero disables it, leaving a plain split-L1 system for
 * apples-to-apples comparisons).
 */
class TwoLevelCache
{
  public:
    TwoLevelCache(const CacheParams &l1i, const CacheParams &l1d,
                  const CacheParams &l2, bool has_l2,
                  const HierarchyPenalties &penalties);

    /** Split-hierarchy form of @p params (params.unified must be
     * false; a unified organization needs a UnifiedCache). */
    explicit TwoLevelCache(const HierarchyParams &params);

    void access(std::uint64_t paddr, RefKind kind);

    const HierarchyStats &stats() const { return _stats; }
    const Cache &l1i() const { return _l1i; }
    const Cache &l1d() const { return _l1d; }
    const Cache &l2() const { return _l2; }
    bool hasL2() const { return _hasL2; }

  private:
    Cache _l1i;
    Cache _l1d;
    Cache _l2;
    bool _hasL2;
    HierarchyPenalties _penalties;
    HierarchyStats _stats;
    std::uint64_t _l1iPenaltyL2;
    std::uint64_t _l1dPenaltyL2;
    std::uint64_t _l1iPenaltyMem;
    std::uint64_t _l1dPenaltyMem;
    std::uint64_t _l2PenaltyMem;
};

} // namespace oma

#endif // OMA_CACHE_HIERARCHY_HH
