/**
 * @file
 * The design space of the allocator, the paper's primary
 * contribution: the configuration grid of Table 5 (TLBs of 64-512
 * entries at 1/2/4/8-way or fully associative; caches of 2-32 KB with
 * 1-32-word lines at 1/2/4/8-way) and the ranked Allocation record.
 * ConfigSpace builds the lists a sweep measures, and its check()
 * admits a request's space over those same lists, so admission and
 * the sweep cannot disagree on which geometries a request has.
 * The search that costs each combination with the MQF area model,
 * discards combinations over the die budget (250,000 rbe), scores the
 * rest with independently measured per-component CPI contributions
 * and ranks by total CPI — regenerating Tables 6 and 7 — lives in
 * core/search_strategy.hh.
 */

#ifndef OMA_CORE_SEARCH_HH
#define OMA_CORE_SEARCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "area/mqf.hh"
#include "core/sweep.hh"

namespace oma
{

/**
 * The configuration grid of Table 5, plus optional extension axes.
 * The extension vectors default to empty, which makes the space the
 * paper's exact grid; populating them opens the five-component
 * allocation space (victim caches on the I-cache axis, swept
 * write-buffer depths, and split-L1 + L2 hierarchies) that the
 * extended search ranks alongside the classic combinations.
 */
struct ConfigSpace
{
    std::vector<std::uint64_t> tlbEntries = {64, 128, 256, 512};
    std::vector<std::uint64_t> tlbWays = {1, 2, 4, 8};
    /** Fully-associative TLBs considered up to this many entries. */
    std::uint64_t tlbFullAssocMax = 64;

    std::vector<std::uint64_t> cacheKBytes = {2, 4, 8, 16, 32};
    std::vector<std::uint64_t> lineWords = {1, 2, 4, 8, 16, 32};
    std::vector<std::uint64_t> cacheWays = {1, 2, 4, 8};

    // ----- extension axes (all default-empty = the paper's grid) -----

    /** Victim-buffer line counts paired with every direct-mapped
     * capacity in @c cacheKBytes (empty = no victim candidates). */
    std::vector<std::uint64_t> victimEntries;
    /** Line words of the direct-mapped L1 under a victim buffer. */
    std::uint64_t victimLineWords = 4;

    /** Write-buffer depths to sweep (empty = keep the reference
     * machine's buffer out of the search). */
    std::vector<std::uint64_t> wbEntries;
    std::uint64_t wbDrainCycles = 3;

    /** L2 capacities backing split L1 pairs (empty = no hierarchy
     * candidates). */
    std::vector<std::uint64_t> l2KBytes;
    std::uint64_t l2LineWords = 8;
    std::uint64_t l2Ways = 4;
    /** Split-L1 organization under an L2. */
    std::uint64_t hierL1LineWords = 4;
    std::uint64_t hierL1Ways = 2;

    /** All TLB geometries in the grid. */
    [[nodiscard]] std::vector<TlbGeometry> tlbGeometries() const;

    /**
     * All realizable cache geometries with associativity at most
     * @p max_ways (Table 7 restricts to 2). The default is the list
     * the sweep measures.
     */
    [[nodiscard]] std::vector<CacheGeometry>
    cacheGeometries(std::uint64_t max_ways = maxSweptCacheWays) const;

    /** Victim-cache candidates (capacity x buffer depth). */
    [[nodiscard]] std::vector<VictimParams> victimConfigs() const;

    /** Write-buffer depth candidates. */
    [[nodiscard]] std::vector<WriteBufferParams>
    writeBufferConfigs() const;

    /** Split-L1 + L2 candidates (every L1 capacity strictly smaller
     * than its L2). */
    [[nodiscard]] std::vector<HierarchyParams>
    hierarchyConfigs() const;

    /** Every extension candidate as a sweepable component slot, in
     * victim, write-buffer, hierarchy order. */
    [[nodiscard]] std::vector<ComponentSlot> extensionSlots() const;

    /**
     * The candidate count SearchSpace::candidateCount() reports for
     * the tables a sweep of this space measures, ranked under
     * @p max_cache_ways, from the list sizes alone: no sweep, no
     * search. Exact while no axis holds more than 64 values.
     */
    [[nodiscard]] std::uint64_t
    candidateCount(std::uint64_t max_cache_ways) const;

    /** True when any extension axis is populated. */
    [[nodiscard]] bool
    hasExtensions() const
    {
        return !victimEntries.empty() || !wbEntries.empty() ||
            !l2KBytes.empty();
    }

    /** The default extended space the experiments sweep: the paper's
     * grid plus modest victim / write-buffer / L2 axes. */
    [[nodiscard]] static ConfigSpace extended();

    // Request limits (docs/MODEL.md §14): the largest sizes a space
    // may ask for, far above every grid in the repository (64-KB
    // caches and L2s, 512-entry TLBs, 8-line victim buffers). The
    // simulators allocate these sizes in full before any reference.

    /** Largest cache or L2 capacity, in KB (16 MB). */
    static constexpr std::uint64_t maxCacheKBytes = 16 * 1024;
    /** Largest TLB entry count. */
    static constexpr std::uint64_t maxTlbEntries = 64 * 1024;
    /** Largest victim-buffer line count. */
    static constexpr std::uint64_t maxVictimEntries = 1024;
    /** Widest cache the sweep measures (Table 5 stops at 8 ways); a
     * request's max_cache_ways only narrows what is ranked. */
    static constexpr std::uint64_t maxSweptCacheWays = 8;
    /** Most candidate allocations one request may rank
     * (candidateCount()). Table 6 ranks 244,800 and the extended
     * space 1,061,276; 64 cache sizes, line sizes and ways once asked
     * about 10^12. */
    static constexpr std::uint64_t maxCandidates = 100000000;

    /**
     * Empty when the sweep can build every geometry and component of
     * the space and rank it under @p max_cache_ways, else the first
     * failure, as "space[.<fields>]: <why>" naming the axes that
     * produced it (the wire names of AllocationRequest). It builds
     * the lists the sweep measures and rejects, in order: sizes past
     * the request limits, an empty TLB axis, no cache within
     * @p max_cache_ways, more than maxCandidates candidates, then
     * each geometry. The simulators validate the geometries fatally,
     * so a space that fails here must never reach a sweep. Expects
     * every axis to hold at most 64 values (QueryEngine::validate).
     */
    [[nodiscard]] std::string check(std::uint64_t max_cache_ways) const;

    /** Append every axis to an artifact-store fingerprint (vector
     * axes as an element count followed by the elements, so two
     * spaces never alias across field boundaries). */
    void fingerprint(Fingerprint &fp) const;
};

/** One ranked allocation of the on-chip memory budget. */
struct Allocation
{
    TlbGeometry tlb;
    CacheGeometry icache;
    CacheGeometry dcache;
    double areaRbe = 0.0;
    double cpi = 0.0;
    double tlbCpi = 0.0;
    double icacheCpi = 0.0;
    double dcacheCpi = 0.0;
    /** 1-based rank in the unrestricted ordering. */
    std::size_t rank = 0;

    // ----- extension fields (zero/false for classic allocations) ---

    /** Victim-buffer lines behind the (direct-mapped) I-cache. */
    std::uint64_t victimEntries = 0;
    /** Swept write-buffer depth (0 = not part of this allocation). */
    std::uint64_t wbEntries = 0;
    /** Hierarchy organization: split L1s (icache/dcache fields name
     * the L1 pair) backed by @c l2 when @c hasL2. */
    bool hasL2 = false;
    bool unified = false;
    CacheGeometry l2;
    /** Hierarchy stall CPI (replaces icacheCpi/dcacheCpi, which are
     * zero for hierarchy allocations). */
    double hierarchyCpi = 0.0;
    /** Swept write buffer's stall CPI (additive axis). */
    double wbCpi = 0.0;

    /** True when any extension component is part of the allocation. */
    [[nodiscard]] bool
    hasExtension() const
    {
        return victimEntries != 0 || wbEntries != 0 || hasL2 ||
            unified;
    }
};

} // namespace oma

#endif // OMA_CORE_SEARCH_HH
