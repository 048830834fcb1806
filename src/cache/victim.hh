/**
 * @file
 * Victim cache (Jouppi, ISCA 1990).
 *
 * A small fully-associative buffer that holds the lines most
 * recently evicted from a direct-mapped L1 and swaps them back on a
 * conflict miss. It is the classic alternative to set associativity
 * when access-time constraints force a direct-mapped primary — the
 * situation the paper's Table 7 models by restricting cache
 * associativity — at the cost of a handful of CAM entries rather
 * than a slower array. The extension bench pits a direct-mapped
 * L1 + victim buffer against 2-way caches under the MQF budget.
 */

#ifndef OMA_CACHE_VICTIM_HH
#define OMA_CACHE_VICTIM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "area/geometry.hh"
#include "support/fingerprint.hh"

namespace oma
{

/** Full configuration of a victim-cache organization. */
struct VictimParams
{
    /** Direct-mapped L1 geometry (assoc must be 1). */
    CacheGeometry l1;
    /** Lines in the victim buffer (0 disables the buffer). */
    std::uint64_t entries = 4;

    /** Append every behaviour-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        l1.fingerprint(fp);
        fp.u64("victim.entries", entries);
    }
};

/** Counters of a victim-cache simulation. */
struct VictimStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t victimHits = 0; //!< Conflict misses swapped back.
    std::uint64_t misses = 0;     //!< Went to memory.

    /** Call @p f(name, s.field...) for every counter, in store-payload
     * order, under its run-report name (CacheStats::forEachCounter). */
    template <class F, class... S>
    static void
    forEachCounter(F &&f, S &&...s)
    {
        f("accesses", s.accesses...);
        f("l1_hits", s.l1Hits...);
        f("victim_hits", s.victimHits...);
        f("misses", s.misses...);
    }

    double
    missRatio() const
    {
        return accesses == 0 ? 0.0
                             : double(misses) / double(accesses);
    }

    /** Share of would-be L1 misses the victim buffer absorbed. */
    double
    victimCoverage() const
    {
        const std::uint64_t l1_misses = victimHits + misses;
        return l1_misses == 0 ? 0.0
                              : double(victimHits) / double(l1_misses);
    }
};

/**
 * A direct-mapped L1 backed by a small fully-associative victim
 * buffer with swap-on-hit semantics.
 */
class VictimCache
{
  public:
    /**
     * @param l1 Direct-mapped L1 geometry (assoc must be 1).
     * @param victim_entries Lines in the victim buffer (0 disables).
     */
    VictimCache(const CacheGeometry &l1, std::uint64_t victim_entries);

    explicit VictimCache(const VictimParams &params)
        : VictimCache(params.l1, params.entries)
    {
    }

    /**
     * Simulate one access.
     *
     * @retval 0 L1 hit.
     * @retval 1 victim-buffer hit (swapped back).
     * @retval 2 miss to memory.
     */
    int access(std::uint64_t paddr);

    const VictimStats &stats() const { return _stats; }
    std::uint64_t victimEntries() const { return _victim.size(); }

  private:
    struct VictimLine
    {
        std::uint64_t line = 0; //!< Full line number.
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    CacheGeometry _geom;
    unsigned _lineShift;
    std::uint64_t _setMask;
    std::vector<std::uint64_t> _l1Tags;  //!< Line number per set.
    std::vector<bool> _l1Valid;
    std::vector<VictimLine> _victim;
    std::uint64_t _tick = 0;
    VictimStats _stats;
};

} // namespace oma

#endif // OMA_CACHE_VICTIM_HH
