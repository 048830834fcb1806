/**
 * @file
 * Implementation of the one-pass multi-configuration LRU simulator.
 */

#include "cache/cheetah.hh"

#include <algorithm>
#include <utility>

#include "support/bits.hh"
#include "support/logging.hh"
#include "trace/recorded.hh"

namespace oma
{

namespace
{

/** An unused stack entry. No line equals it: a line is a byte
 * address shifted right by at least two bits (lines hold whole
 * words). */
constexpr std::uint64_t noLine = ~std::uint64_t(0);

} // namespace

Cheetah::Cheetah(const std::vector<CacheGeometry> &geoms)
    : _lastLine(noLine)
{
    fatalIf(geoms.empty(), "Cheetah needs at least one cache geometry");
    const std::uint64_t line_bytes = geoms.front().lineBytes;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> shapes;
    for (const CacheGeometry &geom : geoms) {
        geom.validate();
        fatalIf(geom.lineBytes != line_bytes,
                "Cheetah geometries must share one line size: " +
                    geom.describe());
        shapes.emplace_back(geom.numSets(), geom.assoc);
    }
    _lineShift = floorLog2(line_bytes);

    // One level per set count, as deep as its largest associativity
    // (the shapes sort by set count, then ways).
    std::sort(shapes.begin(), shapes.end());
    for (const auto &[sets, ways] : shapes) {
        if (_levels.empty() || _levels.back().setMask != sets - 1) {
            _levels.emplace_back();
            _levels.back().setMask = sets - 1;
        }
        _levels.back().ways = ways;
    }
    for (Level &level : _levels) {
        level.stacks.assign((level.setMask + 1) * level.ways, noLine);
        level.depthHits.assign(numRefKinds * level.ways, 0);
    }
}

void
Cheetah::step(std::uint64_t line, unsigned kind)
{
    ++_accesses[kind];
    if (line == _lastLine) {
        ++_levels.front().mruHits[kind];
        return;
    }
    _lastLine = line;

    bool seen = false;
    for (Level &level : _levels) {
        std::uint64_t *stack =
            level.stacks.data() + (line & level.setMask) * level.ways;
        if (stack[0] == line) {
            ++level.mruHits[kind];
            return;
        }
        std::size_t d = 1;
        while (d < level.ways && stack[d] != line)
            ++d;
        if (d < level.ways) {
            ++level.depthHits[kind * level.ways + d];
            seen = true;
        } else {
            d = level.ways - 1; // a miss: the LRU entry falls off
        }
        for (; d > 0; --d)
            stack[d] = stack[d - 1];
        stack[0] = line;
    }
    if (!seen)
        _coldLines.add(line);
}

void
Cheetah::access(std::uint64_t paddr, RefKind kind)
{
    step(paddr >> _lineShift, unsigned(kind));
}

template <bool Fetch>
void
Cheetah::replayBatch(const std::uint32_t *paddr,
                     const std::uint8_t *flags, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned kind = Fetch
            ? unsigned(RefKind::IFetch)
            : unsigned(flags[i] & RecordedTrace::kindMask);
        step(std::uint64_t(paddr[i]) >> _lineShift, kind);
    }
    _coldLines.merge();
}

void
Cheetah::replayFetchBatch(const std::uint32_t *paddr, std::size_t n)
{
    replayBatch<true>(paddr, nullptr, n);
}

void
Cheetah::replayDataBatch(const std::uint32_t *paddr,
                         const std::uint8_t *flags, std::size_t n)
{
    replayBatch<false>(paddr, flags, n);
}

std::uint64_t
Cheetah::compulsoryMisses() const
{
    return _coldLines.count();
}

const Cheetah::Level *
Cheetah::levelFor(const CacheGeometry &geom) const
{
    if (!geom.check().empty() ||
        geom.lineBytes != std::uint64_t(1) << _lineShift)
        return nullptr;
    for (const Level &level : _levels) {
        if (level.setMask == geom.numSets() - 1)
            return geom.assoc <= level.ways ? &level : nullptr;
    }
    return nullptr;
}

CacheStats
Cheetah::stats(const CacheGeometry &geom) const
{
    const Level *level = levelFor(geom);
    panicIf(level == nullptr,
            "Cheetah::stats: geometry out of range: " + geom.describe());
    CacheStats s;
    for (unsigned k = 0; k < numRefKinds; ++k) {
        // MRU at a smaller set count is MRU here too.
        std::uint64_t hits = 0;
        for (const Level *l = _levels.data(); l <= level; ++l)
            hits += l->mruHits[k];
        for (std::size_t d = 1; d < geom.assoc; ++d)
            hits += level->depthHits[k * level->ways + d];
        s.accesses[k] = _accesses[k];
        s.misses[k] = _accesses[k] - hits;
    }
    s.compulsoryMisses = compulsoryMisses();
    return s;
}

} // namespace oma
