/**
 * @file
 * Implementation of the set-associative cache simulator.
 */

#include "cache/cache.hh"

#include "support/bits.hh"

namespace oma
{

Cache::Cache(const CacheGeometry &geom)
    : _geom(geom)
{
    _geom.validate();
    const std::uint64_t sets = _geom.numSets();
    _setMask = sets - 1;
    _lineShift = floorLog2(_geom.lineBytes);
    _indexBits = floorLog2(sets);
    _ways = _geom.assoc;
    _lines.assign(sets * _ways, Line());
}

std::uint64_t
Cache::lineNumber(std::uint64_t paddr) const
{
    return paddr >> _lineShift;
}

bool
Cache::probe(std::uint64_t paddr) const
{
    const std::uint64_t line = lineNumber(paddr);
    const std::uint64_t set = line & _setMask;
    const std::uint64_t tag = line >> _indexBits;
    const std::size_t base = set * _ways;
    for (std::size_t w = 0; w < _ways; ++w) {
        const Line &l = _lines[base + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

std::size_t
Cache::victimWay(std::size_t set_base) const
{
    // Prefer an invalid way.
    for (std::size_t w = 0; w < _ways; ++w) {
        if (!_lines[set_base + w].valid)
            return w;
    }
    std::size_t victim = 0;
    std::uint64_t oldest = _lines[set_base].stamp;
    for (std::size_t w = 1; w < _ways; ++w) {
        if (_lines[set_base + w].stamp < oldest) {
            oldest = _lines[set_base + w].stamp;
            victim = w;
        }
    }
    return victim;
}

bool
Cache::access(std::uint64_t paddr, RefKind kind)
{
    ++_tick;
    const std::uint64_t line = lineNumber(paddr);
    const std::uint64_t set = line & _setMask;
    const std::uint64_t tag = line >> _indexBits;
    const std::size_t base = set * _ways;

    ++_stats.accesses[unsigned(kind)];
    for (std::size_t w = 0; w < _ways; ++w) {
        Line &l = _lines[base + w];
        if (l.valid && l.tag == tag) {
            l.stamp = _tick;
            return true;
        }
    }
    return missFill(line, base, tag, kind);
}

bool
Cache::missFill(std::uint64_t line, std::size_t base,
                std::uint64_t tag, RefKind kind)
{
    ++_stats.misses[unsigned(kind)];
    _missedLines.add(line);

    // Write-allocate: a store miss fills its line like a load miss.
    Line &l = _lines[base + victimWay(base)];
    l.valid = true;
    l.tag = tag;
    l.stamp = _tick;
    return false;
}

void
Cache::prefetch(std::uint64_t paddr)
{
    ++_tick;
    const std::uint64_t line = lineNumber(paddr);
    const std::uint64_t set = line & _setMask;
    const std::uint64_t tag = line >> _indexBits;
    const std::size_t base = set * _ways;
    for (std::size_t w = 0; w < _ways; ++w) {
        Line &l = _lines[base + w];
        if (l.valid && l.tag == tag) {
            l.stamp = _tick;
            return;
        }
    }
    Line &l = _lines[base + victimWay(base)];
    l.valid = true;
    l.tag = tag;
    l.stamp = _tick;
}

CacheStats
Cache::stats() const
{
    CacheStats s = _stats;
    s.compulsoryMisses = _missedLines.count();
    return s;
}

} // namespace oma
