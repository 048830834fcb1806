/**
 * @file
 * Implementation of the software-managed MMU model.
 */

#include "tlb/mmu.hh"

#include "trace/recorded.hh"

namespace oma
{

const char *
missClassName(MissClass c)
{
    switch (c) {
      case MissClass::UserMiss:
        return "user";
      case MissClass::KernelMiss:
        return "kernel";
      case MissClass::ModifyFault:
        return "modify";
      case MissClass::InvalidFault:
        return "invalid";
      case MissClass::PageFault:
        return "other";
    }
    return "?";
}

Mmu::Mmu(const TlbParams &params, const TlbPenalties &penalties)
    : _tlb(params.geom), _penalties(penalties),
      _flushOnSwitch(params.flushOnAsidSwitch)
{
}

std::uint64_t
Mmu::charge(MissClass c)
{
    const std::uint64_t cost = _penalties.cyclesFor(c);
    ++_stats.counts[unsigned(c)];
    _stats.cycles[unsigned(c)] += cost;
    return cost;
}

std::uint64_t
Mmu::fillPtePage(std::uint32_t asid, std::uint64_t user_vpn,
                 bool charge_miss)
{
    const std::uint64_t pt_vpn = ptePageVpn(asid, user_vpn);
    if (_tlb.lookup(pt_vpn, asid))
        return 0;
    // Page-table pages are kernel-global mappings; their own metadata
    // is kernel bookkeeping, not a user-visible page fault. When the
    // refill happens inside a page-fault handler its cost is already
    // part of the fault service, so it is not charged again.
    std::uint64_t cost = 0;
    if (charge_miss)
        cost = charge(MissClass::KernelMiss);
    PageFlags &flags = _pages[pageKey(pt_vpn, 0, true)];
    flags.touched = true;
    flags.dirty = true;
    _tlb.insert(pt_vpn, asid, /*global=*/true, /*dirty=*/true);
    return cost;
}

std::uint64_t
Mmu::translate(const MemRef &ref)
{
    if (!ref.mapped || !isMappedAddress(ref.vaddr))
        return 0;
    return translateMapped(ref.vaddr, ref.asid, ref.isStore());
}

std::uint64_t
Mmu::translatePacked(std::uint32_t vaddr, std::uint8_t asid,
                     std::uint8_t flags)
{
    if ((flags & RecordedTrace::mappedBit) == 0 ||
        !isMappedAddress(vaddr)) {
        return 0;
    }
    const bool store =
        RefKind(flags & RecordedTrace::kindMask) == RefKind::Store;
    return translateMapped(vaddr, asid, store);
}

std::uint64_t
Mmu::translateMapped(std::uint64_t vaddr, std::uint32_t asid,
                     bool store)
{
    ++_stats.translations;
    const bool kernel_seg = inKseg2(vaddr);
    if (_flushOnSwitch && !kernel_seg) {
        if (_asidSeen && asid != _currentAsid) {
            // No ASIDs in the hardware: a context switch invalidates
            // every entry (kernel-global entries included — there is
            // no G bit either).
            _tlb.invalidateAll();
            ++_stats.asidFlushes;
        }
        _currentAsid = asid;
        _asidSeen = true;
    }
    const std::uint64_t vpn = vpnOf(vaddr);
    std::uint64_t cost = 0;

    if (_tlb.lookup(vpn, asid)) {
        if (store && !_tlb.isDirty(vpn, asid)) {
            // First store through a clean entry: modify fault.
            cost += charge(MissClass::ModifyFault);
            PageFlags &flags = _pages[pageKey(vpn, asid, kernel_seg)];
            flags.dirty = true;
            _tlb.setDirty(vpn, asid);
        }
        return cost;
    }

    PageFlags &flags = _pages[pageKey(vpn, asid, kernel_seg)];
    if (!flags.touched) {
        // First touch: OS-level page fault, independent of the TLB
        // geometry (the "Other" class of Figure 7). Recorded in the
        // stats but not returned as stall time — the fault handler
        // runs as ordinary kernel execution, which is how the paper's
        // hardware monitor would have attributed it.
        charge(MissClass::PageFault);
        flags.touched = true;
        // The fault handler builds the mapping through the linear
        // page table, leaving the PT page warm in the TLB.
        if (!kernel_seg)
            fillPtePage(asid, vpn, /*charge_miss=*/false);
    } else if (flags.invalidated) {
        cost += charge(MissClass::InvalidFault);
        flags.invalidated = false;
    } else if (kernel_seg) {
        cost += charge(MissClass::KernelMiss);
    } else {
        // Fast uTLB refill; the handler reads the PTE out of the
        // mapped page-table page, which may itself miss.
        cost += charge(MissClass::UserMiss);
        cost += fillPtePage(asid, vpn);
    }

    if (store && !flags.dirty) {
        // The refilled entry is clean; the retried store takes a
        // modify fault before the page becomes writable.
        cost += charge(MissClass::ModifyFault);
        flags.dirty = true;
    }
    _tlb.insert(vpn, asid, kernel_seg, flags.dirty);
    return cost;
}

void
Mmu::invalidatePage(std::uint64_t vpn, std::uint32_t asid, bool global)
{
    PageFlags &flags = _pages[pageKey(vpn, asid, global)];
    if (!flags.touched)
        return;
    flags.invalidated = true;
    flags.dirty = false;
    _tlb.invalidate(vpn, asid);
}

} // namespace oma
