/**
 * @file
 * The memory-reference record that flows through every simulator.
 *
 * A reference carries both the virtual and the (pseudo-)physical
 * address plus the address-space identifier and processor mode, which
 * is everything the cache, TLB and monitor models need. This mirrors
 * what the paper's Monster logic analyzer captured at the R2000 pins
 * (the R2000 has off-chip, physically-addressed caches, so every
 * reference is visible there).
 */

#ifndef OMA_TRACE_MEMREF_HH
#define OMA_TRACE_MEMREF_HH

#include <cstdint>

namespace oma
{

/** What kind of access a reference is. */
enum class RefKind : std::uint8_t
{
    IFetch = 0, //!< Instruction fetch.
    Load = 1,   //!< Data read.
    Store = 2,  //!< Data write.
};

/** Processor privilege mode at the time of the reference. */
enum class Mode : std::uint8_t
{
    User = 0,
    Kernel = 1,
};

/** Number of distinct RefKind values. */
constexpr unsigned numRefKinds = 3;

/** A single memory reference. */
struct MemRef
{
    std::uint64_t vaddr = 0;  //!< Virtual address.
    std::uint64_t paddr = 0;  //!< Pseudo-physical address.
    std::uint32_t asid = 0;   //!< Address-space identifier.
    RefKind kind = RefKind::IFetch;
    Mode mode = Mode::User;
    /**
     * Whether the reference is translated through the TLB. R2000
     * kseg0 kernel references are unmapped (no TLB involvement) but
     * still cached; kuseg and kseg2 references are mapped.
     */
    bool mapped = true;

    bool isFetch() const { return kind == RefKind::IFetch; }
    bool isLoad() const { return kind == RefKind::Load; }
    bool isStore() const { return kind == RefKind::Store; }
    bool isData() const { return kind != RefKind::IFetch; }
    bool isKernel() const { return mode == Mode::Kernel; }
};

} // namespace oma

#endif // OMA_TRACE_MEMREF_HH
