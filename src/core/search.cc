/**
 * @file
 * Implementation of the configuration space.
 */

#include "core/search.hh"

#include <algorithm>

namespace oma
{

std::vector<TlbGeometry>
ConfigSpace::tlbGeometries() const
{
    std::vector<TlbGeometry> geoms;
    for (std::uint64_t entries : tlbEntries) {
        for (std::uint64_t ways : tlbWays) {
            if (ways <= entries)
                geoms.emplace_back(entries, ways);
        }
        if (entries <= tlbFullAssocMax)
            geoms.push_back(TlbGeometry::fullyAssoc(entries));
    }
    return geoms;
}

std::vector<CacheGeometry>
ConfigSpace::cacheGeometries(std::uint64_t max_ways) const
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : cacheKBytes) {
        for (std::uint64_t line : lineWords) {
            for (std::uint64_t ways : cacheWays) {
                if (ways > max_ways)
                    continue;
                const CacheGeometry geom =
                    CacheGeometry::fromWords(kb * 1024, line, ways);
                // Needs at least one set (divided, so no product
                // wraps; a zero line size is left to check()).
                if (geom.lineBytes != 0 &&
                    geom.assoc > geom.capacityBytes / geom.lineBytes)
                    continue;
                geoms.push_back(geom);
            }
        }
    }
    return geoms;
}

std::vector<VictimParams>
ConfigSpace::victimConfigs() const
{
    std::vector<VictimParams> configs;
    for (std::uint64_t kb : cacheKBytes) {
        for (std::uint64_t entries : victimEntries) {
            VictimParams p;
            p.l1 = CacheGeometry::fromWords(kb * 1024,
                                            victimLineWords, 1);
            p.entries = entries;
            configs.push_back(p);
        }
    }
    return configs;
}

std::vector<WriteBufferParams>
ConfigSpace::writeBufferConfigs() const
{
    std::vector<WriteBufferParams> configs;
    for (std::uint64_t entries : wbEntries) {
        WriteBufferParams p;
        p.entries = entries;
        p.drainCycles = wbDrainCycles;
        configs.push_back(p);
    }
    return configs;
}

std::vector<HierarchyParams>
ConfigSpace::hierarchyConfigs() const
{
    std::vector<HierarchyParams> configs;
    for (std::uint64_t l2kb : l2KBytes) {
        for (std::uint64_t kb : cacheKBytes) {
            // An L2 must outsize the L1 level it backs, and the
            // split pair totals 2*kb (the per-L1 comparison used
            // here before let a pair as large as the L2 through).
            if (2 * kb >= l2kb)
                continue;
            HierarchyParams p;
            p.l1i = CacheGeometry::fromWords(kb * 1024, hierL1LineWords,
                                             hierL1Ways);
            p.l1d = p.l1i;
            p.l2 = CacheGeometry::fromWords(l2kb * 1024, l2LineWords,
                                            l2Ways);
            p.org = HierarchyOrg::SplitL2;
            configs.push_back(p);
        }
    }
    return configs;
}

std::vector<ComponentSlot>
ConfigSpace::extensionSlots() const
{
    std::vector<ComponentSlot> slots;
    for (const VictimParams &p : victimConfigs())
        slots.push_back(ComponentSlot::victim(p));
    for (const WriteBufferParams &p : writeBufferConfigs())
        slots.push_back(ComponentSlot::writeBuffer(p));
    for (const HierarchyParams &p : hierarchyConfigs())
        slots.push_back(ComponentSlot::hierarchy(p));
    return slots;
}

std::uint64_t
ConfigSpace::candidateCount(std::uint64_t max_cache_ways) const
{
    // SearchSpace's axes: the swept caches (cacheGeometries()) within
    // max_cache_ways on each side, the victim options on the fetch
    // side, the hierarchies whose L1s are within max_cache_ways, and
    // one write-buffer option when no depth is swept.
    std::uint64_t caches = 0;
    for (const CacheGeometry &g : cacheGeometries())
        caches += g.assoc <= max_cache_ways ? 1 : 0;
    std::uint64_t hierarchies = 0;
    for (const HierarchyParams &p : hierarchyConfigs())
        hierarchies += p.l1i.assoc <= max_cache_ways ? 1 : 0;
    const std::uint64_t fetch = caches + victimConfigs().size();
    return tlbGeometries().size() * (fetch * caches + hierarchies) *
        std::max<std::uint64_t>(1, wbEntries.size());
}

ConfigSpace
ConfigSpace::extended()
{
    ConfigSpace space;
    space.victimEntries = {4, 8};
    space.wbEntries = {1, 2, 4, 8};
    space.l2KBytes = {32, 64};
    return space;
}

std::string
ConfigSpace::check(std::uint64_t max_cache_ways) const
{
    // The same lists the sweep builds its slots from
    // (api::SweepGrid::fromSpace), in the same order; an axis's
    // values are checked where they first appear.
    const auto blame = [](const char *fields, const std::string &why) {
        return std::string("space.") + fields + ": " + why;
    };
    const struct
    {
        const char *field;
        const std::vector<std::uint64_t> &values;
        std::uint64_t limit;
    } limits[] = {
        {"tlb_entries", tlbEntries, maxTlbEntries},
        {"cache_kbytes", cacheKBytes, maxCacheKBytes},
        {"cache_ways", cacheWays, maxSweptCacheWays},
        {"victim_entries", victimEntries, maxVictimEntries},
        {"l2_kbytes", l2KBytes, maxCacheKBytes},
    };
    for (const auto &axis : limits)
        for (const std::uint64_t v : axis.values)
            if (v > axis.limit)
                return blame(axis.field,
                             std::to_string(v) + " exceeds the limit of " +
                                 std::to_string(axis.limit));
    const std::vector<TlbGeometry> tlbs = tlbGeometries();
    if (tlbs.empty())
        return "space: TLB axis is empty";
    const std::vector<CacheGeometry> caches = cacheGeometries();
    if (std::none_of(caches.begin(), caches.end(),
                     [max_cache_ways](const CacheGeometry &g) {
                         return g.assoc <= max_cache_ways;
                     }))
        return "space: no cache geometry is realizable under "
               "max_cache_ways";
    if (const std::uint64_t candidates = candidateCount(max_cache_ways);
        candidates > maxCandidates)
        return "space: " + std::to_string(candidates) +
            " candidates exceed the limit of " +
            std::to_string(maxCandidates);
    for (const TlbGeometry &g : tlbs)
        if (const std::string why = g.check(); !why.empty())
            return blame("tlb_entries/tlb_ways", why);
    for (const CacheGeometry &g : caches)
        if (const std::string why = g.check(); !why.empty())
            return blame("cache_kbytes/line_words/cache_ways", why);
    for (const VictimParams &p : victimConfigs())
        if (const std::string why = p.l1.check(); !why.empty())
            return blame("cache_kbytes/victim_line_words", why);
    for (const WriteBufferParams &p : writeBufferConfigs())
        if (const std::string why = p.check(); !why.empty())
            return blame("wb_entries/wb_drain_cycles", why);
    for (const HierarchyParams &p : hierarchyConfigs()) {
        if (const std::string why = p.l1i.check(); !why.empty())
            return blame("cache_kbytes/hier_l1_line_words/hier_l1_ways",
                         why);
        if (const std::string why = p.l2.check(); !why.empty())
            return blame("l2_kbytes/l2_line_words/l2_ways", why);
    }
    return {};
}

void
ConfigSpace::fingerprint(Fingerprint &fp) const
{
    const auto vec = [&fp](std::string_view name,
                           const std::vector<std::uint64_t> &values) {
        fp.u64(std::string(name) + ".n", values.size());
        for (const std::uint64_t v : values)
            fp.u64(name, v);
    };
    vec("space.tlb_entries", tlbEntries);
    vec("space.tlb_ways", tlbWays);
    fp.u64("space.tlb_full_assoc_max", tlbFullAssocMax);
    vec("space.cache_kbytes", cacheKBytes);
    vec("space.line_words", lineWords);
    vec("space.cache_ways", cacheWays);
    vec("space.victim_entries", victimEntries);
    fp.u64("space.victim_line_words", victimLineWords);
    vec("space.wb_entries", wbEntries);
    fp.u64("space.wb_drain_cycles", wbDrainCycles);
    vec("space.l2_kbytes", l2KBytes);
    fp.u64("space.l2_line_words", l2LineWords);
    fp.u64("space.l2_ways", l2Ways);
    fp.u64("space.hier_l1_line_words", hierL1LineWords);
    fp.u64("space.hier_l1_ways", hierL1Ways);
}

} // namespace oma
