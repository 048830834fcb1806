/**
 * @file
 * Implementation of the search strategies.
 */

#include "core/search_strategy.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "obs/export.hh"
#include "support/logging.hh"
#include "support/mt_rng.hh"
#include "support/rng.hh"
#include "support/threadpool.hh"

namespace oma
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

SearchSpace::SearchSpace(const ComponentCpiTables &tables,
                         const AreaModel &area, double budget_rbe,
                         std::uint64_t max_cache_ways)
    : _tables(&tables), _budget(budget_rbe), _maxWays(max_cache_ways)
{
    fatalIf(budget_rbe <= 0, "area budget must be positive");

    // Precompute areas once per distinct geometry, exactly as the
    // exhaustive enumeration always did.
    _tlbAreas.resize(tables.tlbGeoms.size());
    for (std::size_t t = 0; t < tables.tlbGeoms.size(); ++t)
        _tlbAreas[t] = area.tlbArea(tables.tlbGeoms[t]);

    // The fetch-side axis: every plain I-cache in index order, then
    // every victim-cache option (a direct-mapped L1 plus its CAM
    // buffer, costed as an alternative fetch-side organization).
    // With no victim options this list is exactly the classic
    // I-cache enumeration, so the extension-free emission order —
    // and therefore the stable-sorted ranking, ties included — is
    // unchanged from the three-component search.
    _iOptions.reserve(tables.icacheGeoms.size() +
                      tables.victimOptions.size());
    for (std::size_t i = 0; i < tables.icacheGeoms.size(); ++i) {
        if (tables.icacheGeoms[i].assoc > max_cache_ways)
            continue;
        _iOptions.push_back({i, false,
                             area.cacheArea(tables.icacheGeoms[i]),
                             tables.icacheCpi[i]});
    }
    for (std::size_t v = 0; v < tables.victimOptions.size(); ++v) {
        const VictimParams &p = tables.victimOptions[v].params;
        // Victim options bypass the max_cache_ways restriction by
        // design (the CAM buffer provides the associativity), which
        // is only sound when the L1 in front of it is direct-mapped.
        fatalIf(p.l1.assoc != 1,
                "victim-cache option wraps a set-associative L1; "
                "the victim buffer models conflict relief behind a "
                "direct-mapped array (and would silently bypass the "
                "associativity restriction otherwise)");
        const double a = area.cacheArea(p.l1) +
            area.victimBufferArea(p.entries, p.l1.lineBytes);
        _iOptions.push_back({v, true, a, tables.victimOptions[v].cpi});
    }

    // The data-side axis: eligible D-cache geometries in index order
    // (prefiltering preserves the in-loop filter's emission order).
    _dOptions.reserve(tables.dcacheGeoms.size());
    for (std::size_t d = 0; d < tables.dcacheGeoms.size(); ++d) {
        if (tables.dcacheGeoms[d].assoc > max_cache_ways)
            continue;
        _dOptions.push_back({d, area.cacheArea(tables.dcacheGeoms[d]),
                             tables.dcacheCpi[d]});
    }

    // The write-buffer axis: a single free no-op entry when depths
    // were not swept (the classic search), else one entry per depth.
    if (tables.wbOptions.empty()) {
        _wbOptions.push_back({0, 0.0, 0.0});
    } else {
        for (const auto &wb : tables.wbOptions)
            _wbOptions.push_back(
                {wb.params.entries,
                 area.writeBufferArea(wb.params.entries), wb.cpi});
    }

    // The hierarchy axis: organizations that replace the split I/D
    // pair wholesale (their L1s obey the associativity restriction).
    for (std::size_t h = 0; h < tables.hierarchyOptions.size(); ++h) {
        const HierarchyParams &p = tables.hierarchyOptions[h].params;
        if (p.l1i.assoc > max_cache_ways ||
            (!p.unified() && p.l1d.assoc > max_cache_ways)) {
            continue;
        }
        double a = area.cacheArea(p.l1i);
        if (!p.unified())
            a += area.cacheArea(p.l1d);
        if (p.hasL2())
            a += area.cacheArea(p.l2);
        _hierOptions.push_back({h, a, tables.hierarchyOptions[h].cpi});
    }

    const auto axis_min = [](const auto &options, auto proj) {
        double m = kInf;
        for (const auto &o : options)
            m = std::min(m, proj(o));
        return m;
    };
    _minTlb = axis_min(_tlbAreas, [](double a) { return a; });
    _minI = axis_min(_iOptions, [](const IOption &o) { return o.area; });
    _minD = axis_min(_dOptions, [](const DOption &o) { return o.area; });
    _minWb =
        axis_min(_wbOptions, [](const WbOption &o) { return o.area; });
    _minHier = axis_min(_hierOptions,
                        [](const HierOption &o) { return o.area; });
}

std::uint64_t
SearchSpace::candidateCount() const
{
    return std::uint64_t(_tlbAreas.size()) *
        (std::uint64_t(_iOptions.size()) * _dOptions.size() +
         _hierOptions.size()) *
        _wbOptions.size();
}

double
SearchSpace::area(const SearchCandidate &c) const
{
    if (c.hier) {
        const double th = _tlbAreas[c.tlb] + _hierOptions[c.primary].area;
        return th + _wbOptions[c.wb].area;
    }
    const double ti = _tlbAreas[c.tlb] + _iOptions[c.primary].area;
    const double tid = ti + _dOptions[c.dcache].area;
    return tid + _wbOptions[c.wb].area;
}

double
SearchSpace::cpi(const SearchCandidate &c) const
{
    const ComponentCpiTables &tb = *_tables;
    if (c.hier) {
        return tb.baseCpi + tb.tlbCpi[c.tlb] +
            _hierOptions[c.primary].cpi + _wbOptions[c.wb].cpi;
    }
    return tb.baseCpi + tb.tlbCpi[c.tlb] + _iOptions[c.primary].cpi +
        _dOptions[c.dcache].cpi + _wbOptions[c.wb].cpi;
}

Allocation
SearchSpace::materialize(const SearchCandidate &c) const
{
    const ComponentCpiTables &tb = *_tables;
    Allocation a;
    a.tlb = tb.tlbGeoms[c.tlb];
    a.tlbCpi = tb.tlbCpi[c.tlb];
    const WbOption &wb = _wbOptions[c.wb];
    a.wbEntries = wb.entries;
    a.wbCpi = wb.cpi;
    if (c.hier) {
        const HierOption &ho = _hierOptions[c.primary];
        const HierarchyParams &p = tb.hierarchyOptions[ho.index].params;
        a.icache = p.l1i;
        a.dcache = p.unified() ? p.l1i : p.l1d;
        a.hasL2 = p.hasL2();
        a.unified = p.unified();
        if (a.hasL2)
            a.l2 = p.l2;
        a.hierarchyCpi = ho.cpi;
    } else {
        const IOption &io = _iOptions[c.primary];
        if (io.isVictim) {
            const VictimParams &p = tb.victimOptions[io.index].params;
            a.icache = p.l1;
            a.victimEntries = p.entries;
        } else {
            a.icache = tb.icacheGeoms[io.index];
        }
        const DOption &dn = _dOptions[c.dcache];
        a.dcache = tb.dcacheGeoms[dn.index];
        a.icacheCpi = io.cpi;
        a.dcacheCpi = dn.cpi;
    }
    a.areaRbe = area(c);
    a.cpi = cpi(c);
    return a;
}

namespace
{

/** One in-budget candidate with its total CPI: what the exhaustive
 * enumeration keeps until the final ranking is known. */
struct Scored
{
    double cpi;
    SearchCandidate c;
};

/**
 * The exhaustive ranking order: CPI, then emission order — TLB shard
 * first, then split before hierarchy candidates, then the remaining
 * axes in loop order. This is exactly the order a stable sort by CPI
 * leaves the emitted sequence in, ties included.
 */
bool
rankedBefore(const Scored &x, const Scored &y)
{
    if (x.cpi < y.cpi)
        return true;
    if (y.cpi < x.cpi)
        return false;
    return std::tie(x.c.tlb, x.c.hier, x.c.primary, x.c.dcache,
                    x.c.wb) <
        std::tie(y.c.tlb, y.c.hier, y.c.primary, y.c.dcache, y.c.wb);
}

} // namespace

SearchResult
ExhaustiveStrategy::search(const SearchSpace &space, unsigned threads,
                           obs::Observation &observation) const
{
    obs::Span span(observation.metrics, "search/exhaustive");

    const double budget = space.budget();
    const auto &tlb_area = space.tlbAreas();
    const auto &i_options = space.iOptions();
    const auto &d_options = space.dOptions();
    const auto &wb_options = space.wbOptions();
    const auto &hier_options = space.hierOptions();
    const ComponentCpiTables &tables = space.tables();
    const double min_d = space.minDArea();
    const double min_wb = space.minWbArea();
    const std::uint64_t top_k = _topK;

    // Score one TLB-geometry shard: exactly the serial enumeration
    // restricted to TLB index t, visiting split candidates in
    // (fetch-side, d, wb) order, then hierarchy candidates in
    // (hierarchy, wb) order. Each pruning floor extends the partial
    // area with the remaining axes' minima *in the concrete
    // accumulation order*, so the floor equals the area of the
    // cheapest candidate in the subgrid: a pruned subgrid contains
    // only candidates the budget test would reject one by one, so
    // the kept set is the unpruned enumeration's. Partial CPI
    // sums follow SearchSpace::cpi()'s left-to-right order, so every
    // kept CPI is bitwise the one materialize() reports.
    //
    // Every in-budget candidate is counted; with a top_k only the
    // shard's best top_k by rankedBefore() are kept (a max-heap with
    // the worst kept candidate on top), which is enough: a candidate
    // that top_k others of its own shard beat cannot be in the
    // global top_k.
    struct Shard
    {
        std::vector<Scored> kept;
        std::uint64_t inBudget = 0;
        std::uint64_t evals = 0;
        std::uint64_t pruned = 0;
    };
    std::vector<Shard> shards(tlb_area.size());

    const auto score_shard = [&](std::size_t t) {
        Shard &shard = shards[t];
        const auto keep = [&](double cpi, const SearchCandidate &c) {
            ++shard.inBudget;
            std::vector<Scored> &kept = shard.kept;
            if (top_k == 0) {
                kept.push_back({cpi, c});
            } else if (kept.size() < top_k) {
                kept.push_back({cpi, c});
                std::push_heap(kept.begin(), kept.end(), rankedBefore);
            } else if (cpi < kept.front().cpi) {
                // A later candidate of the shard beats the worst kept
                // one only on strictly lower CPI.
                std::pop_heap(kept.begin(), kept.end(), rankedBefore);
                kept.back() = {cpi, c};
                std::push_heap(kept.begin(), kept.end(), rankedBefore);
            }
        };
        const double t_cpi = tables.baseCpi + tables.tlbCpi[t];
        for (std::size_t ip = 0; ip < i_options.size(); ++ip) {
            const double ti_area = tlb_area[t] + i_options[ip].area;
            if ((ti_area + min_d) + min_wb > budget) {
                ++shard.pruned;
                continue;
            }
            const double ti_cpi = t_cpi + i_options[ip].cpi;
            for (std::size_t dp = 0; dp < d_options.size(); ++dp) {
                const double tid_area = ti_area + d_options[dp].area;
                if (tid_area + min_wb > budget) {
                    ++shard.pruned;
                    continue;
                }
                const double tid_cpi = ti_cpi + d_options[dp].cpi;
                for (std::size_t wp = 0; wp < wb_options.size(); ++wp) {
                    ++shard.evals;
                    if (tid_area + wb_options[wp].area > budget)
                        continue;
                    keep(tid_cpi + wb_options[wp].cpi,
                         SearchCandidate{false, t, ip, dp, wp});
                }
            }
        }
        for (std::size_t hp = 0; hp < hier_options.size(); ++hp) {
            const double th_area = tlb_area[t] + hier_options[hp].area;
            if (th_area + min_wb > budget) {
                ++shard.pruned;
                continue;
            }
            const double th_cpi = t_cpi + hier_options[hp].cpi;
            for (std::size_t wp = 0; wp < wb_options.size(); ++wp) {
                ++shard.evals;
                if (th_area + wb_options[wp].area > budget)
                    continue;
                keep(th_cpi + wb_options[wp].cpi,
                     SearchCandidate{true, t, hp, 0, wp});
            }
        }
    };

    parallelFor(threads, 0, shards.size(), [&](std::size_t t) {
        score_shard(t);
        observation.tick();
    });

    // Merge the shards in TLB order and rank: rankedBefore() is a
    // total order, so the ranking (ties included) is the same no
    // matter how many lanes scored the shards. Only the ranked
    // candidates are materialized.
    SearchResult result;
    result.candidates = space.candidateCount();
    std::vector<Scored> ranked;
    std::size_t kept = 0;
    for (const Shard &s : shards)
        kept += s.kept.size();
    ranked.reserve(kept);
    for (const Shard &s : shards) {
        result.inBudget += s.inBudget;
        result.evaluations += s.evals;
        result.prunedSubspaces += s.pruned;
        ranked.insert(ranked.end(), s.kept.begin(), s.kept.end());
    }
    std::sort(ranked.begin(), ranked.end(), rankedBefore);
    if (top_k != 0 && ranked.size() > top_k)
        ranked.resize(std::size_t(top_k));
    result.allocations.reserve(ranked.size());
    for (const Scored &s : ranked) {
        result.allocations.push_back(space.materialize(s.c));
        result.allocations.back().rank = result.allocations.size();
    }

    obs::MetricRegistry &m = observation.metrics;
    m.add("search/shards", shards.size());
    m.add("search/candidates", result.candidates);
    m.add("search/evaluations", result.evaluations);
    m.add("search/pruned_subspaces", result.prunedSubspaces);
    m.add("search/in_budget", result.inBudget);
    obs::exportRanking(m, result.allocations);
    return result;
}

// ---------------------------------------------------------------------
// Simulated annealing
// ---------------------------------------------------------------------

namespace
{

/** (capacity bytes, line bytes, ways) of a cache-like option. */
using GeomKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

/** One axis's live (not floor-pruned) option positions. */
struct AxisLive
{
    std::vector<std::size_t> list;
    std::vector<char> mask;

    void
    init(std::size_t n)
    {
        mask.assign(n, 0);
    }

    void
    add(std::size_t pos, bool is_live)
    {
        mask[pos] = is_live ? 1 : 0;
        if (is_live)
            list.push_back(pos);
    }
};

/**
 * Neighbourhood structure of a SearchSpace: per-axis live lists
 * (options whose cheapest completion fits the budget; the rest are
 * pruned from the proposal distribution up front) and geometry-keyed
 * lookups so typed mutations can find "the same cache one capacity
 * step up" in O(log n). All grids are powers of two, so doubling /
 * halving a dimension lands exactly on the neighbouring option when
 * it exists.
 */
struct NeighborIndex
{
    AxisLive t, i, d, w, h;
    std::map<GeomKey, std::size_t> plainI;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t>
        victimI; //!< (L1 capacity, buffer entries) -> i position.
    std::map<GeomKey, std::size_t> dByGeom;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t>
        tlbByKey; //!< (entries, ways; 0 = fully assoc) -> t.
    std::map<std::uint64_t, std::vector<std::size_t>>
        victimsByCap; //!< capacity -> live victim i positions.
    std::uint64_t pruned = 0; //!< Dead options across all axes.
    bool feasible = false;    //!< Some candidate fits the budget.
};

NeighborIndex
buildIndex(const SearchSpace &s)
{
    NeighborIndex n;
    const ComponentCpiTables &tb = s.tables();
    const double budget = s.budget();
    const double min_t = s.minTlbArea();
    const double min_i = s.minIArea();
    const double min_d = s.minDArea();
    const double min_wb = s.minWbArea();
    const double min_h = s.minHierArea();

    // Every floor below is the area of a concrete candidate
    // (accumulated in the evaluation order with the other axes at
    // their minima), so "floor > budget" proves every candidate
    // containing the option is over budget.
    const auto &tlb_areas = s.tlbAreas();
    n.t.init(tlb_areas.size());
    for (std::size_t t = 0; t < tlb_areas.size(); ++t) {
        const double split = ((tlb_areas[t] + min_i) + min_d) + min_wb;
        const double hier = (tlb_areas[t] + min_h) + min_wb;
        const bool live = split <= budget || hier <= budget;
        n.t.add(t, live);
        n.pruned += !live;
        n.feasible = n.feasible || live;
        const TlbGeometry &g = tb.tlbGeoms[t];
        n.tlbByKey[{g.entries, g.assoc}] = t;
    }

    const auto &iops = s.iOptions();
    n.i.init(iops.size());
    for (std::size_t ip = 0; ip < iops.size(); ++ip) {
        const SearchSpace::IOption &io = iops[ip];
        const bool live =
            ((min_t + io.area) + min_d) + min_wb <= budget;
        n.i.add(ip, live);
        n.pruned += !live;
        if (io.isVictim) {
            const VictimParams &p = tb.victimOptions[io.index].params;
            n.victimI[{p.l1.capacityBytes, p.entries}] = ip;
            if (live)
                n.victimsByCap[p.l1.capacityBytes].push_back(ip);
        } else {
            const CacheGeometry &g = tb.icacheGeoms[io.index];
            n.plainI[{g.capacityBytes, g.lineBytes, g.assoc}] = ip;
        }
    }

    const auto &dops = s.dOptions();
    n.d.init(dops.size());
    for (std::size_t dp = 0; dp < dops.size(); ++dp) {
        const bool live =
            ((min_t + min_i) + dops[dp].area) + min_wb <= budget;
        n.d.add(dp, live);
        n.pruned += !live;
        const CacheGeometry &g = tb.dcacheGeoms[dops[dp].index];
        n.dByGeom[{g.capacityBytes, g.lineBytes, g.assoc}] = dp;
    }

    const auto &wops = s.wbOptions();
    n.w.init(wops.size());
    for (std::size_t wp = 0; wp < wops.size(); ++wp) {
        const double split =
            ((min_t + min_i) + min_d) + wops[wp].area;
        const double hier = (min_t + min_h) + wops[wp].area;
        const bool live = split <= budget || hier <= budget;
        n.w.add(wp, live);
        n.pruned += !live;
    }

    const auto &hops = s.hierOptions();
    n.h.init(hops.size());
    for (std::size_t hp = 0; hp < hops.size(); ++hp) {
        const bool live = (min_t + hops[hp].area) + min_wb <= budget;
        n.h.add(hp, live);
        n.pruned += !live;
    }

    return n;
}

/** Cache-like shape of a fetch-side option. */
struct FetchShape
{
    std::uint64_t cap;
    std::uint64_t line;
    std::uint64_t assoc;
    bool isVictim;
    std::uint64_t entries;
};

FetchShape
fetchShape(const SearchSpace &s, std::size_t ip)
{
    const SearchSpace::IOption &io = s.iOptions()[ip];
    if (io.isVictim) {
        const VictimParams &p =
            s.tables().victimOptions[io.index].params;
        return {p.l1.capacityBytes, p.l1.lineBytes, 1, true,
                p.entries};
    }
    const CacheGeometry &g = s.tables().icacheGeoms[io.index];
    return {g.capacityBytes, g.lineBytes, g.assoc, false, 0};
}

template <typename Map, typename Key>
std::optional<std::size_t>
lookupLive(const Map &m, const Key &key, const std::vector<char> &mask)
{
    const auto it = m.find(key);
    if (it == m.end() || !mask[it->second])
        return std::nullopt;
    return it->second;
}

/** Raw position step (+/-1) gated by the axis's live mask. */
std::optional<std::size_t>
stepLive(std::size_t pos, bool up, const std::vector<char> &mask)
{
    if (up ? pos + 1 >= mask.size() : pos == 0)
        return std::nullopt;
    const std::size_t np = up ? pos + 1 : pos - 1;
    if (!mask[np])
        return std::nullopt;
    return np;
}

/**
 * Propose one typed mutation of @p cur. Returns nullopt when the
 * drawn operator does not apply (e.g. a ways step on a victim
 * option) or its target is absent / floor-pruned; the caller simply
 * moves to the next iteration without spending an evaluation.
 */
std::optional<SearchCandidate>
propose(const SearchCandidate &cur, const SearchSpace &s,
        const NeighborIndex &n, MtRng &rng)
{
    SearchCandidate c = cur;
    switch (rng.below(8)) {
    case 0: { // grow/shrink a primary capacity
        const bool up = rng.below(2) == 1;
        if (cur.hier) {
            // Hierarchy options are enumerated capacity-major, so
            // the adjacent option is the neighbouring organization.
            const auto np = stepLive(cur.primary, up, n.h.mask);
            if (!np)
                return std::nullopt;
            c.primary = *np;
            return c;
        }
        if (rng.below(2) == 0) {
            const FetchShape f = fetchShape(s, cur.primary);
            const std::uint64_t cap = up ? f.cap * 2 : f.cap / 2;
            const auto np = f.isVictim
                ? lookupLive(n.victimI,
                             std::make_pair(cap, f.entries), n.i.mask)
                : lookupLive(n.plainI,
                             GeomKey{cap, f.line, f.assoc}, n.i.mask);
            if (!np)
                return std::nullopt;
            c.primary = *np;
        } else {
            const CacheGeometry &g =
                s.tables().dcacheGeoms[s.dOptions()[cur.dcache].index];
            const std::uint64_t cap =
                up ? g.capacityBytes * 2 : g.capacityBytes / 2;
            const auto np = lookupLive(
                n.dByGeom, GeomKey{cap, g.lineBytes, g.assoc},
                n.d.mask);
            if (!np)
                return std::nullopt;
            c.dcache = *np;
        }
        return c;
    }
    case 1: { // step a line size
        if (cur.hier)
            return std::nullopt;
        const bool up = rng.below(2) == 1;
        if (rng.below(2) == 0) {
            const FetchShape f = fetchShape(s, cur.primary);
            if (f.isVictim)
                return std::nullopt; // victim L1 line is fixed
            const std::uint64_t line = up ? f.line * 2 : f.line / 2;
            const auto np = lookupLive(
                n.plainI, GeomKey{f.cap, line, f.assoc}, n.i.mask);
            if (!np)
                return std::nullopt;
            c.primary = *np;
        } else {
            const CacheGeometry &g =
                s.tables().dcacheGeoms[s.dOptions()[cur.dcache].index];
            const std::uint64_t line =
                up ? g.lineBytes * 2 : g.lineBytes / 2;
            const auto np = lookupLive(
                n.dByGeom, GeomKey{g.capacityBytes, line, g.assoc},
                n.d.mask);
            if (!np)
                return std::nullopt;
            c.dcache = *np;
        }
        return c;
    }
    case 2: { // step an associativity
        if (cur.hier)
            return std::nullopt;
        const bool up = rng.below(2) == 1;
        if (rng.below(2) == 0) {
            const FetchShape f = fetchShape(s, cur.primary);
            if (f.isVictim)
                return std::nullopt; // must stay direct-mapped
            const std::uint64_t ways = up ? f.assoc * 2 : f.assoc / 2;
            if (ways == 0)
                return std::nullopt;
            const auto np = lookupLive(
                n.plainI, GeomKey{f.cap, f.line, ways}, n.i.mask);
            if (!np)
                return std::nullopt;
            c.primary = *np;
        } else {
            const CacheGeometry &g =
                s.tables().dcacheGeoms[s.dOptions()[cur.dcache].index];
            const std::uint64_t ways = up ? g.assoc * 2 : g.assoc / 2;
            if (ways == 0)
                return std::nullopt;
            const auto np = lookupLive(
                n.dByGeom, GeomKey{g.capacityBytes, g.lineBytes, ways},
                n.d.mask);
            if (!np)
                return std::nullopt;
            c.dcache = *np;
        }
        return c;
    }
    case 3: { // step the TLB
        const TlbGeometry &g = s.tables().tlbGeoms[cur.tlb];
        const bool up = rng.below(2) == 1;
        if (rng.below(2) == 0) {
            const std::uint64_t entries =
                up ? g.entries * 2 : g.entries / 2;
            const auto np = lookupLive(
                n.tlbByKey, std::make_pair(entries, g.assoc),
                n.t.mask);
            if (!np)
                return std::nullopt;
            c.tlb = *np;
        } else {
            if (g.assoc == 0)
                return std::nullopt; // fully associative: no ways axis
            const std::uint64_t ways = up ? g.assoc * 2 : g.assoc / 2;
            if (ways == 0)
                return std::nullopt;
            const auto np = lookupLive(
                n.tlbByKey, std::make_pair(g.entries, ways), n.t.mask);
            if (!np)
                return std::nullopt;
            c.tlb = *np;
        }
        return c;
    }
    case 4: { // step the write-buffer depth
        const auto np =
            stepLive(cur.wb, rng.below(2) == 1, n.w.mask);
        if (!np)
            return std::nullopt;
        c.wb = *np;
        return c;
    }
    case 5: { // toggle the victim-buffer axis
        if (cur.hier)
            return std::nullopt;
        const FetchShape f = fetchShape(s, cur.primary);
        if (f.isVictim) {
            const auto np = lookupLive(
                n.plainI, GeomKey{f.cap, f.line, 1}, n.i.mask);
            if (!np)
                return std::nullopt;
            c.primary = *np;
            return c;
        }
        if (f.assoc != 1)
            return std::nullopt; // victim relief is for direct-mapped
        const auto it = n.victimsByCap.find(f.cap);
        if (it == n.victimsByCap.end() || it->second.empty())
            return std::nullopt;
        c.primary = it->second[rng.below(it->second.size())];
        return c;
    }
    case 6: { // swap the organization kind
        if (cur.hier) {
            if (n.i.list.empty() || n.d.list.empty())
                return std::nullopt;
            c.hier = false;
            c.primary = n.i.list[rng.below(n.i.list.size())];
            c.dcache = n.d.list[rng.below(n.d.list.size())];
            return c;
        }
        if (n.h.list.empty())
            return std::nullopt;
        c.hier = true;
        c.primary = n.h.list[rng.below(n.h.list.size())];
        c.dcache = 0;
        return c;
    }
    default: { // jump: re-sample one axis uniformly
        switch (rng.below(4)) {
        case 0:
            if (n.t.list.empty())
                return std::nullopt;
            c.tlb = n.t.list[rng.below(n.t.list.size())];
            return c;
        case 1:
            if (cur.hier) {
                if (n.h.list.empty())
                    return std::nullopt;
                c.primary = n.h.list[rng.below(n.h.list.size())];
            } else {
                if (n.i.list.empty())
                    return std::nullopt;
                c.primary = n.i.list[rng.below(n.i.list.size())];
            }
            return c;
        case 2:
            if (cur.hier || n.d.list.empty())
                return std::nullopt;
            c.dcache = n.d.list[rng.below(n.d.list.size())];
            return c;
        default:
            if (n.w.list.empty())
                return std::nullopt;
            c.wb = n.w.list[rng.below(n.w.list.size())];
            return c;
        }
    }
    }
}

struct ChainOutcome
{
    bool found = false;
    SearchCandidate best{};
    double bestCpi = 0.0;
    std::uint64_t evals = 0;
};

/** Smallest-area element of a live list under @p proj. */
template <typename Proj>
std::optional<std::size_t>
argminLive(const std::vector<std::size_t> &live, Proj proj)
{
    std::optional<std::size_t> best;
    double best_area = kInf;
    for (std::size_t pos : live) {
        const double a = proj(pos);
        if (a < best_area) {
            best_area = a;
            best = pos;
        }
    }
    return best;
}

ChainOutcome
runChain(const SearchSpace &s, const NeighborIndex &n,
         const AnnealingConfig &cfg, std::uint64_t seed)
{
    ChainOutcome out;
    MtRng rng(seed);
    const double budget = s.budget();
    const bool can_split = !n.i.list.empty() && !n.d.list.empty();
    const bool can_hier = !n.h.list.empty();
    if (n.t.list.empty() || n.w.list.empty() ||
        (!can_split && !can_hier)) {
        return out;
    }

    // Start from a random feasible candidate; fall back to the
    // cheapest-area candidate (which the liveness analysis proved
    // feasible) if random sampling keeps landing over budget.
    SearchCandidate cur;
    bool have = false;
    for (int attempt = 0; attempt < 64 && !have; ++attempt) {
        SearchCandidate c;
        c.tlb = n.t.list[rng.below(n.t.list.size())];
        c.wb = n.w.list[rng.below(n.w.list.size())];
        std::size_t k = 0;
        if (can_split && can_hier)
            k = rng.below(n.i.list.size() + n.h.list.size());
        else if (can_hier)
            k = n.i.list.size();
        if (k < n.i.list.size()) {
            c.hier = false;
            c.primary = n.i.list[k];
            c.dcache = n.d.list[rng.below(n.d.list.size())];
        } else {
            c.hier = true;
            c.primary = n.h.list[k - n.i.list.size()];
        }
        ++out.evals;
        if (s.area(c) <= budget) {
            cur = c;
            have = true;
        }
    }
    if (!have) {
        SearchCandidate c;
        const auto t = argminLive(n.t.list, [&](std::size_t p) {
            return s.tlbAreas()[p];
        });
        const auto w = argminLive(n.w.list, [&](std::size_t p) {
            return s.wbOptions()[p].area;
        });
        c.tlb = *t;
        c.wb = *w;
        const auto i = argminLive(n.i.list, [&](std::size_t p) {
            return s.iOptions()[p].area;
        });
        const auto d = argminLive(n.d.list, [&](std::size_t p) {
            return s.dOptions()[p].area;
        });
        const auto h = argminLive(n.h.list, [&](std::size_t p) {
            return s.hierOptions()[p].area;
        });
        for (int org = 0; org < 2 && !have; ++org) {
            if (org == 0 && can_split) {
                c.hier = false;
                c.primary = *i;
                c.dcache = *d;
            } else if (org == 1 && can_hier) {
                c.hier = true;
                c.primary = *h;
                c.dcache = 0;
            } else {
                continue;
            }
            ++out.evals;
            if (s.area(c) <= budget) {
                cur = c;
                have = true;
            }
        }
        if (!have)
            return out;
    }

    double cur_cpi = s.cpi(cur);
    out.found = true;
    out.best = cur;
    out.bestCpi = cur_cpi;

    const double t0 = cfg.initialTemp;
    const double t1 = cfg.finalTemp;
    for (std::uint64_t it = 0; it < cfg.iterations; ++it) {
        const double frac = cfg.iterations <= 1
            ? 1.0
            : double(it) / double(cfg.iterations - 1);
        const double temp = t0 * std::pow(t1 / t0, frac);
        const auto prop = propose(cur, s, n, rng);
        if (!prop)
            continue;
        ++out.evals;
        if (s.area(*prop) > budget)
            continue;
        const double cpi = s.cpi(*prop);
        const double delta = cpi - cur_cpi;
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
            cur = *prop;
            cur_cpi = cpi;
            if (cur_cpi < out.bestCpi) {
                out.best = cur;
                out.bestCpi = cur_cpi;
            }
        }
    }
    return out;
}

/**
 * Deterministic coordinate-descent polish: sweep whole axes from the
 * merged best candidate, keeping any strict improvement, until a
 * full round changes nothing. No randomness — the polished result
 * is a pure function of its starting point.
 */
void
polish(const SearchSpace &s, const NeighborIndex &n,
       SearchCandidate &best, double &best_cpi, std::uint64_t &evals)
{
    const double budget = s.budget();
    bool improved = true;
    const auto consider = [&](const SearchCandidate &c) {
        ++evals;
        if (s.area(c) > budget)
            return;
        const double cpi = s.cpi(c);
        if (cpi < best_cpi) {
            best = c;
            best_cpi = cpi;
            improved = true;
        }
    };
    while (improved) {
        improved = false;
        for (std::size_t t : n.t.list) {
            SearchCandidate c = best;
            c.tlb = t;
            consider(c);
        }
        for (std::size_t w : n.w.list) {
            SearchCandidate c = best;
            c.wb = w;
            consider(c);
        }
        for (std::size_t h : n.h.list) {
            SearchCandidate c = best;
            c.hier = true;
            c.primary = h;
            c.dcache = 0;
            consider(c);
        }
        if (!best.hier) {
            for (std::size_t i : n.i.list) {
                SearchCandidate c = best;
                c.primary = i;
                consider(c);
            }
            for (std::size_t d : n.d.list) {
                SearchCandidate c = best;
                c.dcache = d;
                consider(c);
            }
        }
    }
}

} // namespace

SearchResult
AnnealingStrategy::search(const SearchSpace &space, unsigned threads,
                          obs::Observation &observation) const
{
    obs::Span span(observation.metrics, "search/annealing");

    SearchResult result;
    result.candidates = space.candidateCount();
    const NeighborIndex index = buildIndex(space);
    result.prunedSubspaces = index.pruned;

    if (index.feasible) {
        // Independent restart chains with mix64-derived seeds, run
        // in parallel and merged in chain order: the winner is a
        // pure function of the root seed, not of the thread count.
        const unsigned chains = std::max(1u, _config.chains);
        std::vector<ChainOutcome> outcomes(chains);
        parallelFor(threads, 0, chains, [&](std::size_t c) {
            const std::uint64_t chain_seed =
                mix64(_config.seed ^ mix64(c + 1));
            outcomes[c] = runChain(space, index, _config, chain_seed);
            observation.tick();
        });

        bool found = false;
        SearchCandidate best{};
        double best_cpi = 0.0;
        for (const ChainOutcome &o : outcomes) {
            result.evaluations += o.evals;
            if (o.found && (!found || o.bestCpi < best_cpi)) {
                found = true;
                best = o.best;
                best_cpi = o.bestCpi;
            }
        }
        if (found) {
            polish(space, index, best, best_cpi, result.evaluations);
            Allocation a = space.materialize(best);
            a.rank = 1;
            result.allocations.push_back(a);
        }
    }
    result.inBudget = result.allocations.size();

    obs::MetricRegistry &m = observation.metrics;
    m.add("search/candidates", result.candidates);
    m.add("search/evaluations", result.evaluations);
    m.add("search/pruned_subspaces", result.prunedSubspaces);
    obs::exportRanking(m, result.allocations);
    return result;
}

} // namespace oma
