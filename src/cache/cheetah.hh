/**
 * @file
 * Cheetah-style one-pass simulation of many LRU caches.
 *
 * One pass over a reference stream yields the exact CacheStats of
 * every cache (cache/cache.hh: LRU, write-through, write-allocate) of
 * one line size, at every power-of-two set count and associativity
 * asked for. It keeps one truncated Mattson LRU stack per set and set
 * count and counts hits by stack depth [Sugumar93]: a reference at
 * depth d hits every cache of that set count with more than d ways.
 *
 * With bit-selection indexing, the lines of one set at 2S sets are a
 * subset of the lines of one set at S sets (Hill & Smith's set
 * refinement), so a line's LRU depth never grows with the set count.
 * The walk over set counts therefore stops at the first one where the
 * reference is MRU, and a reference to the stream's previous line is
 * MRU at every set count and touches no stack at all.
 *
 * stats(geom) is the one read-out: the counters, access counts
 * included, that a Cache of that geometry would keep.
 */

#ifndef OMA_CACHE_CHEETAH_HH
#define OMA_CACHE_CHEETAH_HH

#include <cstdint>
#include <vector>

#include "area/geometry.hh"
#include "cache/cache.hh"
#include "cache/distinct_lines.hh"
#include "trace/memref.hh"

namespace oma
{

/**
 * All-set-count, all-associativity LRU simulator for one line size.
 */
class Cheetah
{
  public:
    /**
     * @param geoms The caches to report. All share one line size;
     *        each set count keeps stacks as deep as the largest
     *        associativity that uses it.
     */
    explicit Cheetah(const std::vector<CacheGeometry> &geoms);

    /** Observe one access. */
    void access(std::uint64_t paddr, RefKind kind);

    /** Batched form of access(paddr[i], RefKind::IFetch). */
    void replayFetchBatch(const std::uint32_t *paddr, std::size_t n);

    /** Batched form of access(paddr[i], kind_i), kind_i the RefKind
     * in the low bits of the trace flag byte flags[i]. */
    void replayDataBatch(const std::uint32_t *paddr,
                         const std::uint8_t *flags, std::size_t n);

    /** Distinct lines observed: the compulsory misses of every cache
     * of this line size. */
    [[nodiscard]] std::uint64_t compulsoryMisses() const;

    /**
     * The counters a Cache of geometry @p geom would have after the
     * same accesses. Panics unless @p geom was one of the
     * constructor's geometries, or shares a set count and line size
     * with one and has no more ways.
     */
    [[nodiscard]] CacheStats stats(const CacheGeometry &geom) const;

  private:
    /** The stacks and depth histograms of one set count. */
    struct Level
    {
        std::uint64_t setMask = 0;
        std::size_t ways = 0;
        /** sets x ways lines, set-major, MRU first. */
        std::vector<std::uint64_t> stacks;
        /** Hits at depth d >= 1, at [kind * ways + d]. */
        std::vector<std::uint64_t> depthHits;
        /** References of each kind that were MRU here, so at every
         * larger set count too. */
        std::uint64_t mruHits[numRefKinds] = {};
    };

    /** The one access body: @p line at every set count. */
    void step(std::uint64_t line, unsigned kind);

    template <bool Fetch>
    void replayBatch(const std::uint32_t *paddr,
                     const std::uint8_t *flags, std::size_t n);

    /** The level that reports @p geom, or nullptr. */
    const Level *levelFor(const CacheGeometry &geom) const;

    unsigned _lineShift = 0;
    /** Levels by increasing set count. */
    std::vector<Level> _levels;
    std::uint64_t _accesses[numRefKinds] = {};
    /** Line of the previous access. */
    std::uint64_t _lastLine;
    /** Lines found in no stack: every first touch, plus re-touches
     * of lines every stack has evicted. */
    DistinctLines _coldLines;
};

} // namespace oma

#endif // OMA_CACHE_CHEETAH_HH
