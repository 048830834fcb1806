/**
 * @file
 * Hardware TLB model (R2000-style).
 *
 * Entries are tagged with a virtual page number and a 6-bit ASID and
 * may be marked global (kernel mappings match regardless of ASID, as
 * with the R2000 G bit). Organizations range from direct-mapped
 * through set-associative to fully associative, all with LRU
 * replacement. The TLB itself is a dumb lookup structure built from
 * its TlbGeometry alone; miss counting and classification, the
 * software miss-handler cost model and the ASID-less flush
 * (TlbParams) live in Mmu.
 */

#ifndef OMA_TLB_TLB_HH
#define OMA_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "area/geometry.hh"

namespace oma
{

/** The TLB lookup structure. */
class Tlb
{
  public:
    explicit Tlb(const TlbGeometry &geom);

    /**
     * Look up a translation, updating replacement state.
     *
     * @param vpn Virtual page number.
     * @param asid Current address-space identifier.
     * @retval true on hit.
     */
    bool lookup(std::uint64_t vpn, std::uint32_t asid);

    /** Hit test with no side effects. */
    [[nodiscard]] bool probe(std::uint64_t vpn, std::uint32_t asid) const;

    /**
     * Install a translation (the tail of a software miss handler).
     *
     * @param global Kernel mapping that matches any ASID.
     * @param dirty Page already writable without a modify trap.
     */
    void insert(std::uint64_t vpn, std::uint32_t asid, bool global,
                bool dirty);

    /**
     * Mark an entry dirty (modify-trap handler tail).
     * @retval false when the entry is not resident.
     */
    bool setDirty(std::uint64_t vpn, std::uint32_t asid);

    /** True when the entry is resident and marked dirty. */
    [[nodiscard]] bool isDirty(std::uint64_t vpn, std::uint32_t asid) const;

    /** Drop one translation if present (OS unmap / invalidation). */
    void invalidate(std::uint64_t vpn, std::uint32_t asid);

    /** Drop everything (e.g. an ASID rollover flush). */
    void invalidateAll();

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        std::uint64_t stamp = 0;
        std::uint32_t asid = 0;
        bool global = false;
        bool dirty = false;
        bool valid = false;
    };

    bool matches(const Entry &e, std::uint64_t vpn,
                 std::uint32_t asid) const;
    Entry *find(std::uint64_t vpn, std::uint32_t asid);
    const Entry *find(std::uint64_t vpn, std::uint32_t asid) const;
    std::size_t setIndex(std::uint64_t vpn) const;
    /** The first invalid way, else the least recently used (the
     * lowest way on a tie). */
    std::size_t victimWay(std::size_t set_base) const;

    std::size_t _sets;
    std::size_t _ways;
    std::vector<Entry> _entries;
    std::uint64_t _tick = 0;
};

} // namespace oma

#endif // OMA_TLB_TLB_HH
