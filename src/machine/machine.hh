/**
 * @file
 * The simulated machine: single-issue CPU + split caches + software-
 * managed TLB + write buffer, with Monster-style stall attribution.
 *
 * Each instruction costs one base cycle; every stall source adds
 * cycles that are attributed to a cause exactly the way the paper's
 * logic-analyzer state machines attributed DECstation stalls (Table
 * 3): TLB handler cycles, I-cache miss cycles, D-cache miss cycles,
 * write-buffer-full cycles. Non-memory stalls ("Other": FP and
 * integer interlocks) are a per-workload rate supplied by the
 * workload model, since they are a property of the instruction mix,
 * not of the memory system.
 */

#ifndef OMA_MACHINE_MACHINE_HH
#define OMA_MACHINE_MACHINE_HH

#include "cache/cache.hh"
#include "machine/writebuffer.hh"
#include "tlb/mmu.hh"
#include "trace/source.hh"

namespace oma
{

/** Full configuration of a simulated machine. */
struct MachineParams
{
    CacheGeometry icache;
    CacheGeometry dcache;
    TlbParams tlb;
    TlbPenalties tlbPenalties;

    /** Cache miss penalty: first word / each additional word. */
    std::uint64_t missFirstWord = 6;
    std::uint64_t missPerWord = 1;
    /** Penalty of an uncached (kseg1) load. */
    std::uint64_t uncachedLoad = 6;

    std::uint64_t wbEntries = 4;
    std::uint64_t wbDrainCycles = 3;

    /**
     * Tagged next-line instruction prefetch (Section 6 lists
     * prefetching units among candidate structures): on an I-cache
     * miss to line L, line L+1 is also brought in. The prefetch
     * overlaps the demand fill, so it costs no extra stall here;
     * its price is cache pollution and memory traffic.
     */
    bool iPrefetchNextLine = false;

    /**
     * The DECstation 3100 the paper measured: 64-KB off-chip
     * direct-mapped write-through I and D caches with 1-word lines
     * and a 64-entry fully-associative TLB.
     */
    static MachineParams decstation3100();

    /** Miss penalty in cycles for the given cache geometry. */
    std::uint64_t
    missPenalty(const CacheGeometry &geom) const
    {
        return missFirstWord + missPerWord * (geom.lineWords() - 1);
    }

    /** Append every behaviour-determining field to a fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.str("machine.icache", "");
        icache.fingerprint(fp);
        fp.str("machine.dcache", "");
        dcache.fingerprint(fp);
        fp.str("machine.tlb", "");
        tlb.fingerprint(fp);
        tlbPenalties.fingerprint(fp);
        fp.u64("machine.miss_first_word", missFirstWord);
        fp.u64("machine.miss_per_word", missPerWord);
        fp.u64("machine.uncached_load", uncachedLoad);
        fp.u64("machine.wb_entries", wbEntries);
        fp.u64("machine.wb_drain_cycles", wbDrainCycles);
        fp.flag("machine.i_prefetch_next_line", iPrefetchNextLine);
    }
};

/** Monster-style per-cause stall counters. */
struct StallCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t icacheStall = 0;
    std::uint64_t dcacheStall = 0;
    std::uint64_t wbStall = 0;
    std::uint64_t tlbStall = 0;

    /** Total cycles excluding "Other" interlock stalls. */
    std::uint64_t
    cycles() const
    {
        return instructions + icacheStall + dcacheStall + wbStall +
            tlbStall;
    }
};

/** CPI decomposed the way the paper's tables report it. */
struct CpiBreakdown
{
    double cpi = 0.0;
    double tlb = 0.0;
    double icache = 0.0;
    double dcache = 0.0;
    double writeBuffer = 0.0;
    double other = 0.0;

    double
    stallTotal() const
    {
        return tlb + icache + dcache + writeBuffer + other;
    }
};

/** The simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineParams &params);

    /** Observe one reference from the trace. */
    void observe(const MemRef &ref);

    /**
     * Pull up to @p max_refs references from @p source (0 = until the
     * source is exhausted).
     *
     * @return number of references consumed.
     */
    std::uint64_t run(TraceSource &source, std::uint64_t max_refs = 0);

    const MachineParams &params() const { return _params; }
    const StallCounters &stalls() const { return _stalls; }
    Cache &icache() { return _icache; }
    Cache &dcache() { return _dcache; }
    Mmu &mmu() { return _mmu; }
    const WriteBuffer &writeBuffer() const { return _wb; }

    /** Machine time in cycles (excluding "Other" stalls). */
    std::uint64_t cycles() const { return _cycles; }

    /**
     * Assemble the paper-style CPI breakdown, folding in the
     * workload-supplied non-memory stall rate @p other_cpi.
     */
    CpiBreakdown breakdown(double other_cpi) const;

  private:
    MachineParams _params;
    Cache _icache;
    Cache _dcache;
    Mmu _mmu;
    WriteBuffer _wb;
    StallCounters _stalls;
    std::uint64_t _cycles = 0;
    std::uint64_t _iPenalty;
    std::uint64_t _dPenalty;
};

} // namespace oma

#endif // OMA_MACHINE_MACHINE_HH
