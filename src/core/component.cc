/**
 * @file
 * Implementation of the replayable-component concept: the concrete
 * adapter for every simulator kind, the chunked/scalar replay
 * drivers, and the store codec shims.
 *
 * Each adapter funnels its batched replay() and its scalar access()
 * through the underlying simulator's one access body, so the two
 * paths produce bitwise-identical counters by construction — the
 * same contract the cache and TLB replay kernels carry
 * (cache/replay.hh, tlb/replay.hh), extended here to the victim
 * cache, the standalone write buffer and the hierarchies.
 */

#include "core/component.hh"

#include <type_traits>
#include <vector>

#include "store/codec.hh"
#include "support/logging.hh"
#include "tlb/mips_va.hh"

namespace oma
{

const char *
componentKindName(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::ICache:
        return "icache";
      case ComponentKind::DCache:
        return "dcache";
      case ComponentKind::Tlb:
        return "tlb";
      case ComponentKind::Victim:
        return "victim";
      case ComponentKind::WriteBuffer:
        return "wbuffer";
      case ComponentKind::Hierarchy:
        return "l2";
    }
    return "unknown";
}

ComponentSlot
ComponentSlot::icache(const CacheParams &p)
{
    return {ComponentKind::ICache, p};
}

ComponentSlot
ComponentSlot::dcache(const CacheParams &p)
{
    return {ComponentKind::DCache, p};
}

ComponentSlot
ComponentSlot::tlb(const TlbParams &p)
{
    return {ComponentKind::Tlb, p};
}

ComponentSlot
ComponentSlot::victim(const VictimParams &p)
{
    return {ComponentKind::Victim, p};
}

ComponentSlot
ComponentSlot::writeBuffer(const WriteBufferParams &p)
{
    return {ComponentKind::WriteBuffer, p};
}

ComponentSlot
ComponentSlot::hierarchy(const HierarchyParams &p)
{
    return {ComponentKind::Hierarchy, p};
}

void
ComponentSlot::fingerprint(Fingerprint &fp) const
{
    std::visit([&fp](const auto &p) { p.fingerprint(fp); }, params);
}

std::string
ComponentSlot::describe() const
{
    switch (kind) {
      case ComponentKind::ICache:
        return std::get<CacheParams>(params).geom.describe() +
            " I-cache";
      case ComponentKind::DCache:
        return std::get<CacheParams>(params).geom.describe() +
            " D-cache";
      case ComponentKind::Tlb:
        return std::get<TlbParams>(params).geom.describe() + " TLB";
      case ComponentKind::Victim: {
        const VictimParams &p = std::get<VictimParams>(params);
        return p.l1.describe() + " + V" +
            std::to_string(p.entries) + " victim";
      }
      case ComponentKind::WriteBuffer: {
        const WriteBufferParams &p =
            std::get<WriteBufferParams>(params);
        return std::to_string(p.entries) + "-entry write buffer";
      }
      case ComponentKind::Hierarchy:
        return std::get<HierarchyParams>(params).describe();
    }
    return "unknown component";
}

namespace
{

/**
 * Cache adapter: the fetch stream (ICache) or the cached-data stream
 * (DCache) through a Cache's batched kernels, filtered by the same
 * compactCacheStream the one-pass sweep replays through.
 */
class CacheComponent final : public ComponentReplayer
{
  public:
    CacheComponent(const CacheParams &params, CacheStream stream)
        : _cache(params), _stream(stream)
    {
        _paddr.reserve(RecordedTrace::chunkRefs);
        if (stream == CacheStream::Data)
            _flags.reserve(RecordedTrace::chunkRefs);
    }

    void
    access(const MemRef &ref) override
    {
        if (!inCacheStream(_stream, ref.kind, ref.vaddr))
            return;
        _cache.access(ref.paddr, ref.kind);
        ++_delivered;
    }

    void
    replay(const TraceChunkView &chunk) override
    {
        compactCacheStream(chunk, _stream, _paddr, _flags);
        if (_stream == CacheStream::Fetch)
            _cache.replayFetchBatch(_paddr.data(), _paddr.size());
        else
            _cache.replayDataBatch(_paddr.data(), _flags.data(),
                                   _paddr.size());
        _delivered += _paddr.size();
    }

    [[nodiscard]] ComponentCounters
    counters() const override
    {
        return _cache.stats();
    }

    [[nodiscard]] std::uint64_t
    delivered() const override
    {
        return _delivered;
    }

  private:
    Cache _cache;
    CacheStream _stream;
    std::vector<std::uint32_t> _paddr;
    std::vector<std::uint8_t> _flags;
    std::uint64_t _delivered = 0;
};

/**
 * MMU adapter: the full stream through translatePacked, with the
 * trace's pinned invalidation events applied between references (the
 * driver slices chunks at event positions because wantsEvents()).
 */
class TlbComponent final : public ComponentReplayer
{
  public:
    TlbComponent(const TlbParams &params,
                 const TlbPenalties &penalties)
        : _mmu(params, penalties)
    {
    }

    void
    access(const MemRef &ref) override
    {
        _mmu.translatePacked(std::uint32_t(ref.vaddr),
                             std::uint8_t(ref.asid),
                             RecordedTrace::packFlags(ref));
        ++_delivered;
    }

    void
    replay(const TraceChunkView &chunk) override
    {
        for (std::size_t i = 0; i < chunk.size; ++i)
            _mmu.translatePacked(chunk.vaddr[i], chunk.asid[i],
                                 chunk.flags[i]);
        _delivered += chunk.size;
    }

    void
    event(const TraceEvent &ev) override
    {
        _mmu.invalidatePage(ev.vpn, ev.asid, ev.global);
    }

    [[nodiscard]] bool
    wantsEvents() const override
    {
        return true;
    }

    [[nodiscard]] ComponentCounters
    counters() const override
    {
        return _mmu.stats();
    }

    [[nodiscard]] std::uint64_t
    delivered() const override
    {
        return _delivered;
    }

  private:
    Mmu _mmu;
    std::uint64_t _delivered = 0;
};

/** Victim-cache adapter: the instruction-fetch stream, like the
 * I-cache leg it competes with in the allocation search. */
class VictimComponent final : public ComponentReplayer
{
  public:
    explicit VictimComponent(const VictimParams &params) : _vc(params)
    {
        _paddr.reserve(RecordedTrace::chunkRefs);
    }

    void
    access(const MemRef &ref) override
    {
        if (!ref.isFetch())
            return;
        _vc.access(ref.paddr);
        ++_delivered;
    }

    void
    replay(const TraceChunkView &chunk) override
    {
        _paddr.clear();
        for (std::size_t i = 0; i < chunk.size; ++i) {
            const RefKind kind =
                RefKind(chunk.flags[i] & RecordedTrace::kindMask);
            if (kind == RefKind::IFetch)
                _paddr.push_back(chunk.paddr[i]);
        }
        _vc.replayFetchBatch(_paddr.data(), _paddr.size());
        _delivered += _paddr.size();
    }

    [[nodiscard]] ComponentCounters
    counters() const override
    {
        return _vc.stats();
    }

    [[nodiscard]] std::uint64_t
    delivered() const override
    {
        return _delivered;
    }

  private:
    VictimCache _vc;
    std::vector<std::uint32_t> _paddr;
    std::uint64_t _delivered = 0;
};

/** Write-buffer adapter: every reference kind through one observe()
 * body (fetches advance time, stores push words). */
class WriteBufferComponent final : public ComponentReplayer
{
  public:
    explicit WriteBufferComponent(const WriteBufferParams &params)
        : _sim(params)
    {
    }

    void
    access(const MemRef &ref) override
    {
        _sim.observe(ref.kind);
        ++_delivered;
    }

    void
    replay(const TraceChunkView &chunk) override
    {
        for (std::size_t i = 0; i < chunk.size; ++i)
            _sim.observe(
                RefKind(chunk.flags[i] & RecordedTrace::kindMask));
        _delivered += chunk.size;
    }

    [[nodiscard]] ComponentCounters
    counters() const override
    {
        return _sim.stats();
    }

    [[nodiscard]] std::uint64_t
    delivered() const override
    {
        return _delivered;
    }

  private:
    WriteBufferSim _sim;
    std::uint64_t _delivered = 0;
};

/**
 * Hierarchy adapter: fetches plus cached data through a UnifiedCache
 * or TwoLevelCache. Fetches are always delivered (like the I-cache
 * component); data references pass the kseg1 filter (like the
 * D-cache component), so hierarchy counters compose with the split
 * legs' semantics.
 */
class HierarchyComponent final : public ComponentReplayer
{
  public:
    explicit HierarchyComponent(const HierarchyParams &params)
    {
        params.validate(); // unified && hasL2 is contradictory
        if (params.unified)
            _unified = std::make_unique<UnifiedCache>(
                params.l1i, params.penalties);
        else
            _split = std::make_unique<TwoLevelCache>(params);
    }

    void
    access(const MemRef &ref) override
    {
        accessOne(ref.vaddr, ref.paddr, ref.kind);
    }

    void
    replay(const TraceChunkView &chunk) override
    {
        for (std::size_t i = 0; i < chunk.size; ++i)
            accessOne(std::uint64_t(chunk.vaddr[i]),
                      std::uint64_t(chunk.paddr[i]),
                      RefKind(chunk.flags[i] &
                              RecordedTrace::kindMask));
    }

    [[nodiscard]] ComponentCounters
    counters() const override
    {
        return _unified != nullptr ? _unified->stats()
                                   : _split->stats();
    }

    [[nodiscard]] std::uint64_t
    delivered() const override
    {
        return _delivered;
    }

  private:
    void
    accessOne(std::uint64_t vaddr, std::uint64_t paddr, RefKind kind)
    {
        if (kind != RefKind::IFetch && isUncached(vaddr))
            return;
        if (_unified != nullptr)
            _unified->access(paddr, kind);
        else
            _split->access(paddr, kind);
        ++_delivered;
    }

    std::unique_ptr<UnifiedCache> _unified;
    std::unique_ptr<TwoLevelCache> _split;
    std::uint64_t _delivered = 0;
};

static_assert(ReplayableComponent<CacheComponent>);
static_assert(ReplayableComponent<TlbComponent>);
static_assert(ReplayableComponent<VictimComponent>);
static_assert(ReplayableComponent<WriteBufferComponent>);
static_assert(ReplayableComponent<HierarchyComponent>);

/** Variant alternative of ComponentCounters that @p kind reports. */
std::size_t
countersIndexFor(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::ICache:
      case ComponentKind::DCache:
        return 0; // CacheStats
      case ComponentKind::Tlb:
        return 1; // MmuStats
      case ComponentKind::Victim:
        return 2; // VictimStats
      case ComponentKind::WriteBuffer:
        return 3; // WriteBufferStats
      case ComponentKind::Hierarchy:
        return 4; // HierarchyStats
    }
    return 0;
}

} // namespace

std::unique_ptr<ComponentReplayer>
makeComponent(const ComponentSlot &slot,
              const MachineParams &reference_machine)
{
    switch (slot.kind) {
      case ComponentKind::ICache:
        return std::make_unique<CacheComponent>(
            std::get<CacheParams>(slot.params), CacheStream::Fetch);
      case ComponentKind::DCache:
        return std::make_unique<CacheComponent>(
            std::get<CacheParams>(slot.params), CacheStream::Data);
      case ComponentKind::Tlb:
        return std::make_unique<TlbComponent>(
            std::get<TlbParams>(slot.params),
            reference_machine.tlbPenalties);
      case ComponentKind::Victim:
        return std::make_unique<VictimComponent>(
            std::get<VictimParams>(slot.params));
      case ComponentKind::WriteBuffer:
        return std::make_unique<WriteBufferComponent>(
            std::get<WriteBufferParams>(slot.params));
      case ComponentKind::Hierarchy:
        return std::make_unique<HierarchyComponent>(
            std::get<HierarchyParams>(slot.params));
    }
    fatal("unknown component kind");
}

std::uint64_t
replayComponent(const RecordedTrace &trace,
                ComponentReplayer &component)
{
    if (!component.wantsEvents()) {
        // Event-blind components stream whole chunks.
        for (std::size_t c = 0; c < trace.numChunks(); ++c)
            component.replay(trace.chunkView(c));
        return trace.size();
    }

    // Slice each chunk at event positions so every event fires
    // immediately before the reference it is pinned to — the order
    // the live hook produced and the scalar replay reproduces.
    // Events pinned past the final reference never fire, matching
    // RecordedTrace::replay.
    const std::vector<TraceEvent> &events = trace.events();
    std::size_t e = 0;
    for (std::size_t c = 0; c < trace.numChunks(); ++c) {
        const TraceChunkView v = trace.chunkView(c);
        std::size_t done = 0;
        while (done < v.size) {
            const std::uint64_t index = v.baseIndex + done;
            while (e < events.size() && events[e].index == index)
                component.event(events[e++]);
            // Dense run to the next event in this chunk (or its
            // end). Every event at `index` is consumed above, so the
            // next pending event lies strictly past `done`.
            std::size_t stop = v.size;
            if (e < events.size() &&
                events[e].index < v.baseIndex + v.size) {
                stop = std::size_t(events[e].index - v.baseIndex);
            }
            TraceChunkView slice = v;
            slice.vaddr += done;
            slice.paddr += done;
            slice.asid += done;
            slice.flags += done;
            slice.size = stop - done;
            slice.baseIndex = index;
            component.replay(slice);
            done = stop;
        }
    }
    return trace.size();
}

std::uint64_t
replayComponentScalar(const RecordedTrace &trace,
                      ComponentReplayer &component)
{
    trace.replay(
        [&component](const MemRef &ref) { component.access(ref); },
        [&component](const TraceEvent &ev) { component.event(ev); });
    return trace.size();
}

std::string
encodeComponentCounters(const ComponentCounters &counters)
{
    return std::visit(
        [](const auto &s) -> std::string {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, CacheStats>)
                return store::encodeCacheStats(s);
            else if constexpr (std::is_same_v<T, MmuStats>)
                return store::encodeMmuStats(s);
            else if constexpr (std::is_same_v<T, VictimStats>)
                return store::encodeVictimStats(s);
            else if constexpr (std::is_same_v<T, WriteBufferStats>)
                return store::encodeWriteBufferStats(s);
            else
                return store::encodeHierarchyStats(s);
        },
        counters);
}

bool
decodeComponentCounters(std::string_view payload, ComponentKind kind,
                        ComponentCounters &counters)
{
    // The payload carries no kind tag: the store key already
    // fingerprints the kind (and the byte layouts are framed by the
    // per-type decoders), so shards written by the pre-component
    // engine decode unchanged.
    switch (countersIndexFor(kind)) {
      case 0: {
        CacheStats s;
        if (!store::decodeCacheStats(payload, s))
            return false;
        counters = s;
        return true;
      }
      case 1: {
        MmuStats s;
        if (!store::decodeMmuStats(payload, s))
            return false;
        counters = s;
        return true;
      }
      case 2: {
        VictimStats s;
        if (!store::decodeVictimStats(payload, s))
            return false;
        counters = s;
        return true;
      }
      case 3: {
        WriteBufferStats s;
        if (!store::decodeWriteBufferStats(payload, s))
            return false;
        counters = s;
        return true;
      }
      case 4: {
        HierarchyStats s;
        if (!store::decodeHierarchyStats(payload, s))
            return false;
        counters = s;
        return true;
      }
      default:
        return false;
    }
}

} // namespace oma
