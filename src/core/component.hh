/**
 * @file
 * The replayable-component interface: one uniform surface for every
 * simulator the sweep engine measures.
 *
 * A replayable component consumes a recorded reference stream and
 * reports exact counters:
 *
 *  - a *parameter record* carrying `fingerprint()` (keys the artifact
 *    store) — CacheGeometry, TlbParams, VictimParams,
 *    WriteBufferParams or HierarchyParams, bundled with a
 *    ComponentKind in a ComponentSlot;
 *  - chunked `replay(TraceChunkView)` — one packed column chunk,
 *    filtered to the component's stream and fed to the simulator's
 *    one access body, one reference at a time;
 *  - ordered `counters()` — the component's exact integer counters as
 *    a ComponentCounters variant. Each record lists its fields once,
 *    in forEachCounter(); the store codec (store/codec.hh), the obs
 *    exporter and the sweep's per-kind sums all walk that list.
 *
 * replayComponent() is the one driver that replays a recording
 * through a single component. tests/core/test_component_replay.cc
 * holds it bitwise equal, for every kind, to a test-only oracle that
 * drives each raw simulator through RecordedTrace's per-reference
 * views. ComponentSweep replays a heterogeneous list of
 * ComponentSlots (core/sweep.hh); the search strategies rank the
 * extension components alongside the paper's three-way grid
 * (core/search_strategy.hh). The concrete adapters live in
 * component.cc.
 */

#ifndef OMA_CORE_COMPONENT_HH
#define OMA_CORE_COMPONENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/victim.hh"
#include "machine/machine.hh"
#include "machine/writebuffer.hh"
#include "tlb/mmu.hh"
#include "trace/recorded.hh"

namespace oma
{

/** The component kinds a sweep can carry. */
enum class ComponentKind : std::uint8_t
{
    ICache,      //!< Cache replaying the instruction-fetch stream.
    DCache,      //!< Cache replaying the cached-data stream.
    Tlb,         //!< Mmu translating the full stream (with events).
    Victim,      //!< Direct-mapped L1 + victim buffer (fetch stream).
    WriteBuffer, //!< Standalone write-buffer depth model.
    Hierarchy,   //!< Unified L1 or split L1s + optional L2.
};

/** Number of distinct component kinds. */
constexpr std::size_t numComponentKinds = 6;

/** Short lowercase kind name used in store keys and metric
 * prefixes: "icache", "dcache", "tlb", "victim", "wbuffer", "l2". */
[[nodiscard]] const char *componentKindName(ComponentKind kind);

/** The parameter record of one component, by kind. */
using ComponentParams =
    std::variant<CacheGeometry, TlbParams, VictimParams,
                 WriteBufferParams, HierarchyParams>;

/** The exact counters one component reports, by kind. */
using ComponentCounters =
    std::variant<CacheStats, MmuStats, VictimStats, WriteBufferStats,
                 HierarchyStats>;

/**
 * One slot of a sweep's heterogeneous component axis: a kind plus the
 * matching parameter record. Construct through the named factories so
 * the kind and the variant alternative cannot disagree.
 */
struct ComponentSlot
{
    ComponentKind kind = ComponentKind::ICache;
    ComponentParams params;

    [[nodiscard]] static ComponentSlot icache(const CacheGeometry &g);
    [[nodiscard]] static ComponentSlot dcache(const CacheGeometry &g);
    [[nodiscard]] static ComponentSlot tlb(const TlbParams &p);
    [[nodiscard]] static ComponentSlot victim(const VictimParams &p);
    [[nodiscard]] static ComponentSlot
    writeBuffer(const WriteBufferParams &p);
    [[nodiscard]] static ComponentSlot
    hierarchy(const HierarchyParams &p);

    /** Append every parameter field to a store key (kind-agnostic:
     * the sweep keys the kind separately via componentKindName so
     * the classic legs keep their exact historical keys). */
    void fingerprint(Fingerprint &fp) const;

    /** Human-readable one-line description. */
    [[nodiscard]] std::string describe() const;
};

/**
 * A type-erased replayable component instance, used by the sweep
 * engine to drive any slot through one replay loop. Obtain instances
 * from makeComponent().
 */
class ComponentReplayer
{
  public:
    virtual ~ComponentReplayer() = default;

    /** Observe one packed column chunk through the simulator's one
     * access body. The view is taken by value so the loop can keep
     * its column pointers in registers across that body's calls. */
    virtual void replay(TraceChunkView chunk) = 0;

    /** Apply one trace event (page invalidation). No-op for
     * components that do not track virtual mappings. */
    virtual void
    event(const TraceEvent &ev)
    {
        static_cast<void>(ev);
    }

    /** True when replay must be sliced at event positions. */
    [[nodiscard]] virtual bool
    wantsEvents() const
    {
        return false;
    }

    /** The component's exact counters (ordered, raw integers). */
    [[nodiscard]] virtual ComponentCounters counters() const = 0;

    /** References the component's filter actually delivered. */
    [[nodiscard]] virtual std::uint64_t delivered() const = 0;
};

/**
 * Instantiate the simulator for @p slot. @p reference_machine
 * supplies the kind-independent context a component needs beyond its
 * own parameters (today: the TLB miss-handler penalties).
 */
[[nodiscard]] std::unique_ptr<ComponentReplayer>
makeComponent(const ComponentSlot &slot,
              const MachineParams &reference_machine);

/**
 * Replay the whole recording through @p component, chunk by chunk,
 * firing trace events at their pinned positions for components that
 * want them (chunks are sliced at event indices; event-blind
 * components stream whole chunks).
 *
 * @return References examined (the trace length).
 */
std::uint64_t replayComponent(const RecordedTrace &trace,
                              ComponentReplayer &component);

/** Encode a counters variant for the artifact store (raw integer
 * counters only; the store key, not the payload, carries the kind). */
[[nodiscard]] std::string
encodeComponentCounters(const ComponentCounters &counters);

/** @retval false when the payload does not frame exactly one
 * counters record of @p kind (treat as a store miss). */
[[nodiscard]] bool
decodeComponentCounters(std::string_view payload, ComponentKind kind,
                        ComponentCounters &counters);

} // namespace oma

#endif // OMA_CORE_COMPONENT_HH
