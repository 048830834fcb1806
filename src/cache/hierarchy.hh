/**
 * @file
 * Cache-hierarchy models: unified L1 organizations and two-level
 * hierarchies.
 *
 * Table 1 shows that several contemporary processors (i486, Cyrix
 * 486, PowerPC 601) used *unified* on-chip caches, and the paper
 * notes that high-end parts would spend additional on-chip memory on
 * a *second-level* cache rather than larger primaries. These models
 * extend the cost/benefit vocabulary to both choices. A
 * HierarchyParams names one of three organizations (HierarchyOrg),
 * and each is simulated by one model:
 *
 *  - Unified, by UnifiedCache: one array serving instruction and data
 *    references (with the structural port conflict a unified L1
 *    suffers when a fetch and a data access arrive in the same
 *    cycle);
 *  - Split and SplitL2, by TwoLevelCache: split L1s, straight to
 *    memory or backed by a shared L2; L1 misses that hit in the L2
 *    pay a short penalty, L2 misses pay the full memory penalty.
 */

#ifndef OMA_CACHE_HIERARCHY_HH
#define OMA_CACHE_HIERARCHY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/cache.hh"
#include "support/fingerprint.hh"

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

/** The organizations a hierarchy can take. */
enum class HierarchyOrg : std::uint8_t
{
    Split,   //!< Split L1 I/D caches straight to memory.
    SplitL2, //!< Split L1 I/D caches backed by a unified L2.
    Unified, //!< One unified L1 array (@c l1i) straight to memory.
};

/**
 * Full configuration of one hierarchy organization: split L1 I/D
 * caches, optionally backed by a unified L2 (TwoLevelCache), or one
 * unified L1 array serving both reference kinds (UnifiedCache).
 * fingerprint() keys only the geometries @c org simulates, so two
 * organizations that differ only in an unread geometry share a shard.
 */
struct HierarchyParams
{
    CacheGeometry l1i; //!< Also the unified array when Unified.
    CacheGeometry l1d;
    CacheGeometry l2;
    HierarchyOrg org = HierarchyOrg::Split;
    HierarchyPenalties penalties;

    /** The has_l2 and unified flags of the store key and of an
     * Allocation (core/search.hh), derived from @c org. */
    [[nodiscard]] bool
    hasL2() const
    {
        return org == HierarchyOrg::SplitL2;
    }

    [[nodiscard]] bool
    unified() const
    {
        return org == HierarchyOrg::Unified;
    }

    /** Append every behaviour-determining field to a fingerprint:
     * @c l1d unless unified, @c l2 only with an L2. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.str("hier.l1i", "");
        l1i.fingerprint(fp);
        if (!unified()) {
            fp.str("hier.l1d", "");
            l1d.fingerprint(fp);
        }
        if (hasL2()) {
            fp.str("hier.l2", "");
            l2.fingerprint(fp);
        }
        fp.flag("hier.has_l2", hasL2());
        fp.flag("hier.unified", unified());
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
    UnifiedCache(const CacheGeometry &geom,
                 const HierarchyPenalties &penalties);

    /** Observe one reference (pass every fetch, load and store). */
    void access(std::uint64_t paddr, RefKind kind);

    const HierarchyStats &stats() const { return _stats; }

  private:
    Cache _cache;
    HierarchyPenalties _penalties;
    HierarchyStats _stats;
    std::uint64_t _penalty;
};

/**
 * Split L1 I/D caches, backed by a unified L2 under SplitL2 (under
 * Split, L1 misses go straight to memory: a plain split-L1 system for
 * apples-to-apples comparisons).
 */
class TwoLevelCache
{
  public:
    /** @p params names a split organization; a unified one needs a
     * UnifiedCache. */
    explicit TwoLevelCache(const HierarchyParams &params);

    void access(std::uint64_t paddr, RefKind kind);

    const HierarchyStats &stats() const { return _stats; }

  private:
    Cache _l1i;
    Cache _l1d;
    std::optional<Cache> _l2; //!< Built only under SplitL2.
    HierarchyStats _stats;
    std::uint64_t _l1iPenaltyL2;
    std::uint64_t _l1dPenaltyL2;
    std::uint64_t _l1iPenaltyMem;
    std::uint64_t _l1dPenaltyMem;
    std::uint64_t _l2PenaltyMem;
};

} // namespace oma

#endif // OMA_CACHE_HIERARCHY_HH
