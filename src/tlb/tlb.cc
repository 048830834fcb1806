/**
 * @file
 * Implementation of the TLB lookup structure.
 */

#include "tlb/tlb.hh"

namespace oma
{

Tlb::Tlb(const TlbGeometry &geom)
{
    geom.validate();
    _sets = geom.numSets();
    _ways = geom.ways();
    _entries.assign(_sets * _ways, Entry());
}

bool
Tlb::matches(const Entry &e, std::uint64_t vpn, std::uint32_t asid) const
{
    return e.valid && e.vpn == vpn && (e.global || e.asid == asid);
}

std::size_t
Tlb::setIndex(std::uint64_t vpn) const
{
    return _sets == 1 ? 0 : (vpn & (_sets - 1));
}

Tlb::Entry *
Tlb::find(std::uint64_t vpn, std::uint32_t asid)
{
    const std::size_t base = setIndex(vpn) * _ways;
    for (std::size_t w = 0; w < _ways; ++w) {
        Entry &e = _entries[base + w];
        if (matches(e, vpn, asid))
            return &e;
    }
    return nullptr;
}

const Tlb::Entry *
Tlb::find(std::uint64_t vpn, std::uint32_t asid) const
{
    // oma-lint: allow(cast-audit): *this is genuinely non-const here
    // (const overload forwarding); the mutable find() does not write.
    return const_cast<Tlb *>(this)->find(vpn, asid);
}

bool
Tlb::lookup(std::uint64_t vpn, std::uint32_t asid)
{
    ++_tick;
    Entry *e = find(vpn, asid);
    if (e) {
        e->stamp = _tick;
        return true;
    }
    return false;
}

bool
Tlb::probe(std::uint64_t vpn, std::uint32_t asid) const
{
    return find(vpn, asid) != nullptr;
}

std::size_t
Tlb::victimWay(std::size_t set_base) const
{
    for (std::size_t w = 0; w < _ways; ++w) {
        if (!_entries[set_base + w].valid)
            return w;
    }
    std::size_t victim = 0;
    std::uint64_t oldest = _entries[set_base].stamp;
    for (std::size_t w = 1; w < _ways; ++w) {
        if (_entries[set_base + w].stamp < oldest) {
            oldest = _entries[set_base + w].stamp;
            victim = w;
        }
    }
    return victim;
}

void
Tlb::insert(std::uint64_t vpn, std::uint32_t asid, bool global, bool dirty)
{
    ++_tick;
    // Refresh in place when already resident (re-walk after a race).
    if (Entry *e = find(vpn, asid)) {
        e->global = global;
        e->dirty = dirty;
        e->stamp = _tick;
        return;
    }
    const std::size_t base = setIndex(vpn) * _ways;
    Entry &e = _entries[base + victimWay(base)];
    e.vpn = vpn;
    e.asid = asid;
    e.global = global;
    e.dirty = dirty;
    e.valid = true;
    e.stamp = _tick;
}

bool
Tlb::setDirty(std::uint64_t vpn, std::uint32_t asid)
{
    Entry *e = find(vpn, asid);
    if (!e)
        return false;
    e->dirty = true;
    return true;
}

bool
Tlb::isDirty(std::uint64_t vpn, std::uint32_t asid) const
{
    const Entry *e = find(vpn, asid);
    return e && e->dirty;
}

void
Tlb::invalidate(std::uint64_t vpn, std::uint32_t asid)
{
    if (Entry *e = find(vpn, asid))
        e->valid = false;
}

void
Tlb::invalidateAll()
{
    for (auto &e : _entries)
        e.valid = false;
}

} // namespace oma
