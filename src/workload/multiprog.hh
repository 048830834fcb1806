/**
 * @file
 * Multiprogrammed workloads.
 *
 * The paper's trace samples "include multiprogramming and operating
 * system references": several jobs time-share the processor and
 * interfere in the caches and TLB. MultiprogramSource composes
 * complete System streams the same way: it round-robins scheduler
 * quanta across member systems, remapping each member's user ASIDs
 * into a disjoint range (the kernel ASID 0 stays shared, as the
 * kernel is). Member systems are built with distinct seeds, so their
 * pseudo-physical frames differ and cache interference is real
 * rather than accidental aliasing. (One approximation: each member
 * hashes mapped kseg2 kernel frames from its own seed, so dynamic
 * kernel data is not physically shared across members; kseg0 —
 * kernel text, static data, the buffer cache — is identity-mapped
 * and genuinely shared.)
 */

#ifndef OMA_WORKLOAD_MULTIPROG_HH
#define OMA_WORKLOAD_MULTIPROG_HH

#include <memory>
#include <vector>

#include "support/logging.hh"
#include "workload/system.hh"

namespace oma
{

/** Interleaves several Systems in scheduler quanta. */
class MultiprogramSource : public TraceSource
{
  public:
    /**
     * @param quantum_instructions Instructions per scheduling
     *        quantum (DECstation-era schedulers switched every few
     *        tens of thousands of instructions).
     */
    explicit MultiprogramSource(
        std::uint64_t quantum_instructions = 30000)
        : _quantum(quantum_instructions)
    {
    }

    /**
     * Add a member workload. Each member gets the next disjoint
     * ASID block (of 16) and a seed derived from @p seed.
     */
    void
    add(const WorkloadParams &workload, OsKind os, std::uint64_t seed)
    {
        fatalIf(_members.size() >= 4,
                "only 4 disjoint ASID blocks of 16 exist");
        Member m;
        m.system = std::make_unique<System>(workload, os, seed);
        m.asidOffset =
            static_cast<std::uint32_t>(16 * _members.size());
        _members.push_back(std::move(m));
    }

    bool
    next(MemRef &ref) override
    {
        fatalIf(_members.empty(),
                "MultiprogramSource needs at least one member");
        Member &m = _members[_current];
        if (!m.system->next(ref))
            return false;
        if (ref.isFetch() && ++_instrInQuantum >= _quantum) {
            _instrInQuantum = 0;
            _current = (_current + 1) % _members.size();
        }
        // Remap user ASIDs into the member's block; kernel-global
        // references (ASID 0 by convention here) stay shared.
        if (ref.asid != 0) {
            ref.asid = static_cast<std::uint32_t>(
                (ref.asid + m.asidOffset) & 63);
        }
        return true;
    }

    System &member(std::size_t i) { return *_members[i].system; }

    /** Forward an MMU invalidation hook to every member. */
    void
    setInvalidateHook(const OsModel::InvalidateHook &hook)
    {
        for (std::size_t i = 0; i < _members.size(); ++i) {
            const std::uint32_t offset = _members[i].asidOffset;
            _members[i].system->setInvalidateHook(
                [hook, offset](std::uint64_t vpn, std::uint32_t asid,
                               bool global) {
                    const std::uint32_t remapped =
                        asid == 0 ? 0u : ((asid + offset) & 63);
                    hook(vpn, remapped, global);
                });
        }
    }

  private:
    struct Member
    {
        std::unique_ptr<System> system;
        std::uint32_t asidOffset = 0;
    };

    std::uint64_t _quantum;
    std::vector<Member> _members;
    std::size_t _current = 0;
    std::uint64_t _instrInQuantum = 0;
};

} // namespace oma

#endif // OMA_WORKLOAD_MULTIPROG_HH
