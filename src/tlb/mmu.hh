/**
 * @file
 * Software-managed TLB handler model (R2000 style).
 *
 * The R2000 takes a trap on every TLB miss and the operating system
 * refills the TLB in software, so miss *class* determines cost: user
 * misses take the fast uTLB handler (~20 cycles), kernel (kseg2)
 * misses go through the general exception path (~300 cycles), modify
 * and invalid faults are costlier still, and first-touch page faults
 * are an OS-level cost that is independent of TLB geometry. The Mmu
 * couples a Tlb with per-page OS state to classify and cost every
 * miss, including the nested kernel miss a user refill suffers when
 * the page-table page itself is not mapped by the TLB.
 */

#ifndef OMA_TLB_MMU_HH
#define OMA_TLB_MMU_HH

#include <cstdint>
#include <unordered_map>

#include "support/fingerprint.hh"
#include "tlb/mips_va.hh"
#include "tlb/tlb.hh"
#include "trace/memref.hh"

namespace oma
{

/** Classification of TLB service events. */
enum class MissClass : unsigned
{
    UserMiss = 0,   //!< kuseg refill via the fast uTLB handler.
    KernelMiss = 1, //!< kseg2 refill via the general exception path.
    ModifyFault = 2, //!< First store to a clean page.
    InvalidFault = 3, //!< Access to an OS-invalidated page.
    PageFault = 4,  //!< First touch; TLB-size independent ("Other").
};

constexpr unsigned numMissClasses = 5;

/** Display name of a miss class. */
const char *missClassName(MissClass c);

/** Configuration of the TLB an Mmu runs. */
struct TlbParams
{
    TlbGeometry geom;
    /**
     * Model a TLB without address-space identifiers (i486-style,
     * Table 1): the whole TLB is flushed on every address-space
     * switch. Particularly painful under a multiple-API OS, whose
     * services hop between address spaces constantly.
     */
    bool flushOnAsidSwitch = false;

    /** Append every behaviour-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        geom.fingerprint(fp);
        fp.flag("tlb.flush_on_asid_switch", flushOnAsidSwitch);
    }
};

/** Handler costs in CPU cycles for each miss class. */
struct TlbPenalties
{
    std::uint64_t userMiss = 20;
    std::uint64_t kernelMiss = 300;
    std::uint64_t modifyFault = 375;
    std::uint64_t invalidFault = 336;
    std::uint64_t pageFault = 800;

    /** DECstation 3100 clock, for service-time-in-seconds plots. */
    double clockHz = 16.67e6;

    [[nodiscard]] std::uint64_t
    cyclesFor(MissClass c) const
    {
        switch (c) {
          case MissClass::UserMiss:
            return userMiss;
          case MissClass::KernelMiss:
            return kernelMiss;
          case MissClass::ModifyFault:
            return modifyFault;
          case MissClass::InvalidFault:
            return invalidFault;
          case MissClass::PageFault:
            return pageFault;
        }
        return 0;
    }

    /** Append every cost-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.u64("tlb_pen.user_miss", userMiss);
        fp.u64("tlb_pen.kernel_miss", kernelMiss);
        fp.u64("tlb_pen.modify_fault", modifyFault);
        fp.u64("tlb_pen.invalid_fault", invalidFault);
        fp.u64("tlb_pen.page_fault", pageFault);
    }
};

/** Per-class event and cycle counters. */
struct MmuStats
{
    std::uint64_t translations = 0; //!< Mapped references seen.
    std::uint64_t counts[numMissClasses] = {};
    std::uint64_t cycles[numMissClasses] = {};
    /** Whole-TLB flushes taken on ASID switches (ASID-less mode). */
    std::uint64_t asidFlushes = 0;

    /** The word a stored payload begins with (store/codec.hh). */
    static constexpr std::uint64_t shapeWord = numMissClasses;

    /** Call @p f(name, s.field...) for every counter, in store-payload
     * order, under its run-report name (CacheStats::forEachCounter). */
    template <class F, class... S>
    static void
    forEachCounter(F &&f, S &&...s)
    {
        f("translations", s.translations...);
        f("misses", s.counts...);
        f("service_cycles", s.cycles...);
        f("asid_flushes", s.asidFlushes...);
    }

    [[nodiscard]] std::uint64_t
    totalServiceCycles() const
    {
        std::uint64_t sum = 0;
        for (auto c : cycles)
            sum += c;
        return sum;
    }

    /** Cycles that shrink with a better TLB (excludes page faults). */
    [[nodiscard]] std::uint64_t
    geometryDependentCycles() const
    {
        return totalServiceCycles() -
            cycles[unsigned(MissClass::PageFault)];
    }

    /**
     * Pure refill cycles (user + kernel misses): the component the
     * paper's cost/benefit step scores TLB configurations by. The
     * modify/invalid/page-fault classes are configuration-independent
     * constants and are excluded.
     */
    [[nodiscard]] std::uint64_t
    refillCycles() const
    {
        return cycles[unsigned(MissClass::UserMiss)] +
            cycles[unsigned(MissClass::KernelMiss)];
    }

    [[nodiscard]] std::uint64_t
    totalMisses() const
    {
        std::uint64_t sum = 0;
        for (auto c : counts)
            sum += c;
        return sum;
    }
};

/**
 * The software-managed MMU: a Tlb plus the OS page metadata needed to
 * classify misses. Owns its page state so independently configured
 * Mmu instances can replay the same reference stream (the TLB slots
 * of a ComponentSweep, core/sweep.hh).
 */
class Mmu
{
  public:
    Mmu(const TlbParams &params, const TlbPenalties &penalties);

    /**
     * Translate one reference.
     *
     * @return TLB handler cycles incurred (0 on a TLB hit by a clean
     *         access). First-touch page faults are recorded in the
     *         stats ("Other") but excluded from the returned stall
     *         time: the fault handler runs as ordinary kernel
     *         execution.
     */
    std::uint64_t translate(const MemRef &ref);

    /**
     * Translate one packed trace reference (columns straight out of
     * a RecordedTrace chunk, no MemRef materialization): exactly
     * equivalent to translate() on the decoded reference. @p flags
     * is the packed trace flag byte (kind + mode + mapped bits).
     */
    std::uint64_t translatePacked(std::uint32_t vaddr,
                                  std::uint8_t asid,
                                  std::uint8_t flags);

    /**
     * OS invalidation of a page (external pager, pageout, COW). The
     * next access takes an invalid fault.
     */
    void invalidatePage(std::uint64_t vpn, std::uint32_t asid,
                        bool global);

    [[nodiscard]] const MmuStats &stats() const { return _stats; }

    Tlb &tlb() { return _tlb; }
    [[nodiscard]] const Tlb &tlb() const { return _tlb; }

    /** Service time in seconds at the configured clock. */
    double
    serviceSeconds() const
    {
        return double(_stats.totalServiceCycles()) / _penalties.clockHz;
    }

  private:
    struct PageFlags
    {
        bool touched = false;
        bool dirty = false;
        bool invalidated = false;
    };

    static std::uint64_t
    pageKey(std::uint64_t vpn, std::uint32_t asid, bool global)
    {
        return global ? ((1ULL << 63) | vpn)
                      : ((std::uint64_t(asid) << 32) | vpn);
    }

    std::uint64_t charge(MissClass c);

    /** The translation body behind both translate() entry points,
     * past the unmapped-reference gate. */
    std::uint64_t translateMapped(std::uint64_t vaddr,
                                  std::uint32_t asid, bool store);

    /**
     * Refill for a missing page-table page. Charged as a nested
     * kernel miss when @p charge_miss is set (uTLB handler path);
     * free when the refill is a side effect of page-fault handling.
     */
    std::uint64_t fillPtePage(std::uint32_t asid, std::uint64_t user_vpn,
                              bool charge_miss = true);

    Tlb _tlb;
    TlbPenalties _penalties;
    MmuStats _stats;
    // oma-lint: allow(ordered-results): point lookups by page key
    // only; never iterated, so traversal order cannot reach results.
    std::unordered_map<std::uint64_t, PageFlags> _pages;
    std::uint32_t _currentAsid = 0;
    bool _asidSeen = false;
    bool _flushOnSwitch;
};

} // namespace oma

#endif // OMA_TLB_MMU_HH
