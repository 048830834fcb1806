/**
 * @file
 * Implementation of the cache-hierarchy models.
 */

#include "cache/hierarchy.hh"

#include "support/logging.hh"

namespace oma
{

namespace
{

std::uint64_t
penalty(const CacheGeometry &geom, std::uint64_t first,
        std::uint64_t per_word)
{
    return first + per_word * (geom.lineWords() - 1);
}

} // namespace

std::string
HierarchyParams::describe() const
{
    if (unified())
        return "unified " + l1i.describe();
    std::string out = l1i.describe() + " I + " + l1d.describe() + " D";
    if (hasL2())
        out += " + " + l2.describe() + " L2";
    return out;
}

UnifiedCache::UnifiedCache(const CacheGeometry &geom,
                           const HierarchyPenalties &penalties)
    : _cache(geom), _penalties(penalties),
      _penalty(penalty(geom, penalties.memFirstWord,
                       penalties.memPerWord))
{
}

void
UnifiedCache::access(std::uint64_t paddr, RefKind kind)
{
    if (kind == RefKind::IFetch) {
        ++_stats.instructions;
    } else {
        ++_stats.dataRefs;
        // A unified array has one port: the data reference collides
        // with the same-cycle instruction fetch.
        ++_stats.portConflicts;
        _stats.stallCycles += _penalties.portConflict;
    }
    if (!_cache.access(paddr, kind)) {
        ++_stats.l1Misses;
        ++_stats.l2Misses; // no L2: straight to memory
        const bool charge = kind != RefKind::Store ||
            _cache.geometry().lineWords() > 1;
        if (charge)
            _stats.stallCycles += _penalty;
    }
}

TwoLevelCache::TwoLevelCache(const HierarchyParams &params)
    : _l1i(params.l1i), _l1d(params.l1d),
      _l1iPenaltyL2(penalty(params.l1i, params.penalties.l2FirstWord,
                            params.penalties.l2PerWord)),
      _l1dPenaltyL2(penalty(params.l1d, params.penalties.l2FirstWord,
                            params.penalties.l2PerWord)),
      _l1iPenaltyMem(penalty(params.l1i, params.penalties.memFirstWord,
                             params.penalties.memPerWord)),
      _l1dPenaltyMem(penalty(params.l1d, params.penalties.memFirstWord,
                             params.penalties.memPerWord)),
      _l2PenaltyMem(penalty(params.l2, params.penalties.memFirstWord,
                            params.penalties.memPerWord))
{
    fatalIf(params.unified(),
            "TwoLevelCache models split hierarchies; construct a "
            "UnifiedCache for a unified organization");
    if (params.hasL2())
        _l2.emplace(params.l2);
}

void
TwoLevelCache::access(std::uint64_t paddr, RefKind kind)
{
    const bool is_fetch = kind == RefKind::IFetch;
    if (is_fetch)
        ++_stats.instructions;
    else
        ++_stats.dataRefs;

    Cache &l1 = is_fetch ? _l1i : _l1d;
    if (l1.access(paddr, kind))
        return;

    ++_stats.l1Misses;
    const bool charge = kind != RefKind::Store ||
        l1.geometry().lineWords() > 1;

    if (!_l2) {
        ++_stats.l2Misses;
        if (charge) {
            _stats.stallCycles +=
                is_fetch ? _l1iPenaltyMem : _l1dPenaltyMem;
        }
        return;
    }

    // L1 refill through the L2.
    if (_l2->access(paddr, kind)) {
        ++_stats.l2Hits;
        if (charge) {
            _stats.stallCycles +=
                is_fetch ? _l1iPenaltyL2 : _l1dPenaltyL2;
        }
    } else {
        ++_stats.l2Misses;
        if (charge) {
            // Fill the L2 line from memory, then the L1 line from
            // the L2.
            _stats.stallCycles += _l2PenaltyMem +
                (is_fetch ? _l1iPenaltyL2 : _l1dPenaltyL2);
        }
    }
}

} // namespace oma
