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
HierarchyParams::check() const
{
    if (unified && hasL2)
        return "HierarchyParams: a unified L1 cannot be backed by an "
               "L2 (UnifiedCache simulates one array; the area model "
               "and the simulators would disagree about the L2) — "
               "clear hasL2 or model a split hierarchy";
    return {};
}

void
HierarchyParams::validate() const
{
    const std::string error = check();
    fatalIf(!error.empty(), error);
}

std::string
HierarchyParams::describe() const
{
    if (unified)
        return "unified " + l1i.geom.describe();
    std::string out =
        l1i.geom.describe() + " I + " + l1d.geom.describe() + " D";
    if (hasL2)
        out += " + " + l2.geom.describe() + " L2";
    return out;
}

UnifiedCache::UnifiedCache(const CacheParams &params,
                           const HierarchyPenalties &penalties)
    : _cache(params), _penalties(penalties),
      _penalty(penalty(params.geom, penalties.memFirstWord,
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
            _cache.params().geom.lineWords() > 1;
        if (charge)
            _stats.stallCycles += _penalty;
    }
}

TwoLevelCache::TwoLevelCache(const CacheParams &l1i,
                             const CacheParams &l1d,
                             const CacheParams &l2, bool has_l2,
                             const HierarchyPenalties &penalties)
    : _l1i(l1i), _l1d(l1d), _l2(l2), _hasL2(has_l2),
      _penalties(penalties),
      _l1iPenaltyL2(penalty(l1i.geom, penalties.l2FirstWord,
                            penalties.l2PerWord)),
      _l1dPenaltyL2(penalty(l1d.geom, penalties.l2FirstWord,
                            penalties.l2PerWord)),
      _l1iPenaltyMem(penalty(l1i.geom, penalties.memFirstWord,
                             penalties.memPerWord)),
      _l1dPenaltyMem(penalty(l1d.geom, penalties.memFirstWord,
                             penalties.memPerWord)),
      _l2PenaltyMem(penalty(l2.geom, penalties.memFirstWord,
                            penalties.memPerWord))
{
}

TwoLevelCache::TwoLevelCache(const HierarchyParams &params)
    : TwoLevelCache(params.l1i, params.l1d, params.l2, params.hasL2,
                    params.penalties)
{
    fatalIf(params.unified,
            "TwoLevelCache models split hierarchies; construct a "
            "UnifiedCache for a unified organization");
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
        l1.params().geom.lineWords() > 1;

    if (!_hasL2) {
        ++_stats.l2Misses;
        if (charge) {
            _stats.stallCycles +=
                is_fetch ? _l1iPenaltyMem : _l1dPenaltyMem;
        }
        return;
    }

    // L1 refill through the L2.
    if (_l2.access(paddr, kind)) {
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
