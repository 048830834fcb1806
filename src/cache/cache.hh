/**
 * @file
 * Set-associative cache simulator.
 *
 * A functional (timing-free) cache model in the style of the
 * cache2000 / Dinero class of simulators the paper drives with its
 * sampled traces. Every cache is LRU, write-through and
 * write-allocate, as on the DECstation 3100 the paper measures: there
 * is no other policy to pick, so a Cache is built from its
 * CacheGeometry alone, which is also what keys its shards in the
 * artifact store. It counts accesses and misses by reference kind,
 * and compulsory misses, from construction on; that is what the CPI
 * model reads.
 *
 * Every caller (the live Machine, the hierarchies and the per-slot
 * CacheComponent, core/component.hh) drives the one access() body,
 * one reference at a time. The sweep replays its I- and D-cache
 * slots through the one-pass engine instead (cache/cheetah.hh), which
 * reports bitwise the counters this body would
 * (tests/cache/test_cheetah_differential.cc).
 */

#ifndef OMA_CACHE_CACHE_HH
#define OMA_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "area/geometry.hh"
#include "cache/distinct_lines.hh"
#include "trace/memref.hh"

namespace oma
{

/** Event counters maintained by a Cache. */
struct CacheStats
{
    std::uint64_t accesses[numRefKinds] = {};
    std::uint64_t misses[numRefKinds] = {};
    /** Misses to lines that never missed before (compulsory; a line
     * prefetch() brought in counts at its first miss). */
    std::uint64_t compulsoryMisses = 0;

    /** The word a stored payload begins with (store/codec.hh). */
    static constexpr std::uint64_t shapeWord = numRefKinds;

    /** Call @p f(name, s.field...) for every counter, in store-payload
     * order, under its run-report name: the one list the store codec,
     * the obs exporter and the sweep's per-kind sums walk. Passing two
     * records walks them side by side (a sum into the first). */
    template <class F, class... S>
    static void
    forEachCounter(F &&f, S &&...s)
    {
        f("accesses", s.accesses...);
        f("misses", s.misses...);
        f("compulsory_misses", s.compulsoryMisses...);
    }

    [[nodiscard]] std::uint64_t
    totalAccesses() const
    {
        return accesses[0] + accesses[1] + accesses[2];
    }

    [[nodiscard]] std::uint64_t
    totalMisses() const
    {
        return misses[0] + misses[1] + misses[2];
    }

    /** Overall miss ratio. */
    [[nodiscard]] double
    missRatio() const
    {
        const std::uint64_t a = totalAccesses();
        return a == 0 ? 0.0 : double(totalMisses()) / double(a);
    }

    /** Miss ratio for one reference kind. */
    [[nodiscard]] double
    missRatio(RefKind kind) const
    {
        const std::uint64_t a = accesses[unsigned(kind)];
        return a == 0 ? 0.0 : double(misses[unsigned(kind)]) / double(a);
    }
};

/**
 * The cache simulator proper. Physically indexed and tagged (the
 * DECstation 3100 organization); feed it MemRef::paddr.
 */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geom);

    /** Geometry this cache was built with. */
    [[nodiscard]] const CacheGeometry &geometry() const { return _geom; }

    /**
     * Simulate one access.
     *
     * @param paddr Physical byte address.
     * @param kind Fetch / load / store.
     * @retval true on hit.
     */
    bool access(std::uint64_t paddr, RefKind kind);

    /** Hit test without updating replacement or statistics. */
    [[nodiscard]] bool probe(std::uint64_t paddr) const;

    /**
     * Fill a line without touching the statistics (hardware
     * prefetch). Replacement state advances as for a normal fill; a
     * line already resident is refreshed.
     */
    void prefetch(std::uint64_t paddr);

    /** Accumulated counters. */
    [[nodiscard]] CacheStats stats() const;

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0; //!< LRU ordering stamp.
        bool valid = false;
    };

    /** Index of the victim way within a set: the first invalid way,
     * else the least recently used (the lowest way on a tie). */
    std::size_t victimWay(std::size_t set_base) const;

    std::uint64_t lineNumber(std::uint64_t paddr) const;

    /** The miss tail of access() (kept out of line so the hit path
     * stays small). */
    bool missFill(std::uint64_t line, std::size_t base,
                  std::uint64_t tag, RefKind kind);

    CacheGeometry _geom;
    std::uint64_t _setMask;
    unsigned _lineShift;
    unsigned _indexBits;
    std::size_t _ways;
    std::vector<Line> _lines; //!< sets x ways, set-major.
    std::uint64_t _tick = 0;
    /** Every counter but compulsoryMisses, which stats() derives. */
    CacheStats _stats;
    /** Every line that missed: a compulsory miss is a line's first. */
    DistinctLines _missedLines;
};

} // namespace oma

#endif // OMA_CACHE_CACHE_HH
