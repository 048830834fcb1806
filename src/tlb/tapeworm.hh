/**
 * @file
 * Tapeworm-style multi-configuration TLB simulation.
 *
 * The paper's Tapeworm is a simulator compiled into the OS kernel
 * that sees real TLB miss traps and page tables and simulates
 * alternative TLB configurations on line [Uhlig93]. Our equivalent
 * consumes the reference stream of the modelled machine and maintains
 * one independent Mmu (TLB + page metadata) per configuration, plus a
 * fast fully-associative size sweep that mirrors Tapeworm's "one
 * pass, many sizes" use. FaTlbSweep keeps its own LRU stack of
 * (vpn, asid) keys; it does not use the Cheetah cache engine.
 */

#ifndef OMA_TLB_TAPEWORM_HH
#define OMA_TLB_TAPEWORM_HH

#include <unordered_set>
#include <vector>

#include "tlb/mmu.hh"

namespace oma
{

/**
 * Simulates many TLB configurations against one reference stream.
 *
 * Not thread-safe: each member Mmu owns page metadata and must see
 * references and OS page invalidations in trace order. The parallel
 * sweep engine therefore records the stream (invalidations stamped
 * with the reference they precede) and replays it per-configuration
 * on private Mmu instances, which is bitwise-equivalent to feeding
 * one Tapeworm serially because member Mmus never interact.
 */
class Tapeworm
{
  public:
    Tapeworm(const std::vector<TlbParams> &configs,
             const TlbPenalties &penalties);

    /** Feed one reference to every configuration. */
    void observe(const MemRef &ref);

    /** Broadcast an OS page invalidation to every configuration. */
    void invalidatePage(std::uint64_t vpn, std::uint32_t asid,
                        bool global);

    [[nodiscard]] std::size_t size() const { return _mmus.size(); }
    [[nodiscard]] Mmu &at(std::size_t i) { return _mmus[i]; }
    [[nodiscard]] const Mmu &at(std::size_t i) const { return _mmus[i]; }

  private:
    std::vector<Mmu> _mmus;
};

/**
 * One-pass sweep of every fully-associative LRU TLB size up to
 * @p max_entries. Exploits LRU stack inclusion: a reference that hits
 * at stack depth d hits in every FA LRU TLB with more than d entries,
 * so one stack yields the raw miss count of all sizes at once. Misses
 * are classified by address segment so per-class counts can be
 * reconstructed per size. The nested page-table refill of the full
 * Mmu model is not replayed here (it depends on the simulated size),
 * so this sweep is an accelerator for raw miss curves, validated
 * against Mmu in tests.
 */
class FaTlbSweep
{
  public:
    explicit FaTlbSweep(std::uint64_t max_entries);

    /** Observe one reference (unmapped references are ignored). */
    void observe(const MemRef &ref);

    /** Raw misses a FA LRU TLB of @p entries entries would take. */
    [[nodiscard]] std::uint64_t misses(std::uint64_t entries) const;

    /** Misses of class @p c at @p entries entries. */
    [[nodiscard]] std::uint64_t missesOfClass(std::uint64_t entries,
                                              MissClass c) const;

    /** Translated (mapped) references observed. */
    [[nodiscard]] std::uint64_t translations() const
    {
        return _translations;
    }

  private:
    /**
     * Per-segment stack-distance histograms. Depth index _maxEntries
     * holds "beyond the deepest stack or cold".
     */
    std::uint64_t _maxEntries;
    std::vector<std::uint64_t> _stack; //!< MRU-first (vpn, asid) keys.
    std::vector<std::uint64_t> _userHist;
    std::vector<std::uint64_t> _kernelHist;
    std::uint64_t _coldUser = 0;
    std::uint64_t _coldKernel = 0;
    std::uint64_t _translations = 0;
    /** (vpn, asid) keys ever seen, for cold-miss classification. */
    // oma-lint: allow(ordered-results): membership test via insert()
    // only; never iterated, so traversal order cannot reach results.
    std::unordered_set<std::uint64_t> _touched;
};

} // namespace oma

#endif // OMA_TLB_TAPEWORM_HH
