/**
 * @file
 * Implementation of the simulated machine.
 */

#include "machine/machine.hh"

#include "tlb/mips_va.hh"

namespace oma
{

MachineParams
MachineParams::decstation3100()
{
    MachineParams p;
    p.icache = CacheGeometry::fromWords(64 * 1024, 1, 1);
    p.dcache = CacheGeometry::fromWords(64 * 1024, 1, 1);
    p.tlb.geom = TlbGeometry::fullyAssoc(64);
    return p;
}

Machine::Machine(const MachineParams &params)
    : _params(params),
      _icache(params.icache),
      _dcache(params.dcache),
      _mmu(params.tlb, params.tlbPenalties),
      _wb(params.wbEntries, params.wbDrainCycles),
      _iPenalty(params.missPenalty(params.icache)),
      _dPenalty(params.missPenalty(params.dcache))
{
}

void
Machine::observe(const MemRef &ref)
{
    // Address translation precedes the cache access; handler cycles
    // are pure stall time.
    const std::uint64_t tlb_cycles = _mmu.translate(ref);
    _stalls.tlbStall += tlb_cycles;
    _cycles += tlb_cycles;

    if (ref.isFetch()) {
        ++_stalls.instructions;
        ++_cycles;
        if (!_icache.access(ref.paddr, ref.kind)) {
            const std::uint64_t wait = _wb.syncWait(_cycles);
            _stalls.wbStall += wait;
            _cycles += wait;
            _stalls.icacheStall += _iPenalty;
            _cycles += _iPenalty;
            if (_params.iPrefetchNextLine) {
                // Bring in the sequentially next line alongside the
                // demand fill (free of stall, not of pollution).
                _icache.prefetch(ref.paddr + _params.icache.lineBytes);
            }
        }
        return;
    }

    // Data reference. kseg1 accesses bypass the caches entirely.
    if (isUncached(ref.vaddr)) {
        if (ref.isStore()) {
            const std::uint64_t stall = _wb.store(_cycles);
            _stalls.wbStall += stall;
            _cycles += stall;
        } else {
            _stalls.dcacheStall += _params.uncachedLoad;
            _cycles += _params.uncachedLoad;
        }
        return;
    }

    const bool hit = _dcache.access(ref.paddr, ref.kind);
    if (!hit) {
        // Stores miss for free when a one-word line needs no fetch
        // (write-through write-allocate fills the line by writing
        // it); wider lines pay the fetch-on-write.
        const bool charge =
            !ref.isStore() || _params.dcache.lineWords() > 1;
        if (charge) {
            // The miss fetch waits for the write buffer to drain.
            const std::uint64_t wait = _wb.syncWait(_cycles);
            _stalls.wbStall += wait;
            _cycles += wait;
            _stalls.dcacheStall += _dPenalty;
            _cycles += _dPenalty;
        }
    }
    // Write-through: every store goes to the write buffer.
    if (ref.isStore()) {
        const std::uint64_t stall = _wb.store(_cycles);
        _stalls.wbStall += stall;
        _cycles += stall;
    }
}

std::uint64_t
Machine::run(TraceSource &source, std::uint64_t max_refs)
{
    MemRef ref;
    std::uint64_t n = 0;
    while ((max_refs == 0 || n < max_refs) && source.next(ref)) {
        observe(ref);
        ++n;
    }
    return n;
}

CpiBreakdown
Machine::breakdown(double other_cpi) const
{
    CpiBreakdown b;
    const double instr =
        static_cast<double>(std::max<std::uint64_t>(1,
            _stalls.instructions));
    b.tlb = double(_stalls.tlbStall) / instr;
    b.icache = double(_stalls.icacheStall) / instr;
    b.dcache = double(_stalls.dcacheStall) / instr;
    b.writeBuffer = double(_stalls.wbStall) / instr;
    b.other = other_cpi;
    b.cpi = 1.0 + b.stallTotal();
    return b;
}

} // namespace oma
