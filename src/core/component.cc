/**
 * @file
 * Implementation of the replayable-component interface: the concrete
 * adapter for every simulator kind, the chunked replay driver, and
 * the store codec shims.
 *
 * Each adapter filters a chunk to its stream (inCacheStream for the
 * cache kinds, the filter the one-pass engine and RecordedTrace's
 * views apply too) and feeds the survivors to its simulator's one
 * access body in trace order.
 */

#include "core/component.hh"

#include <vector>

#include "store/codec.hh"
#include "support/logging.hh"

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
ComponentSlot::icache(const CacheGeometry &g)
{
    return {ComponentKind::ICache, g};
}

ComponentSlot
ComponentSlot::dcache(const CacheGeometry &g)
{
    return {ComponentKind::DCache, g};
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
        return std::get<CacheGeometry>(params).describe() + " I-cache";
      case ComponentKind::DCache:
        return std::get<CacheGeometry>(params).describe() + " D-cache";
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
 * (DCache) through a Cache, filtered by the same inCacheStream the
 * one-pass sweep's compactCacheStream applies.
 */
class CacheComponent final : public ComponentReplayer
{
  public:
    CacheComponent(const CacheGeometry &geom, CacheStream stream)
        : _cache(geom), _stream(stream)
    {
    }

    void
    replay(TraceChunkView chunk) override
    {
        // Locals, not members, in the loop: the out-of-line access()
        // would make the compiler reload a member on every reference.
        const CacheStream stream = _stream;
        std::uint64_t delivered = 0;
        for (std::size_t i = 0; i < chunk.size; ++i) {
            const RefKind kind =
                RefKind(chunk.flags[i] & RecordedTrace::kindMask);
            if (!inCacheStream(stream, kind, chunk.vaddr[i]))
                continue;
            _cache.access(chunk.paddr[i], kind);
            ++delivered;
        }
        _delivered += delivered;
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
    replay(TraceChunkView chunk) override
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
    }

    void
    replay(TraceChunkView chunk) override
    {
        for (std::size_t i = 0; i < chunk.size; ++i) {
            const RefKind kind =
                RefKind(chunk.flags[i] & RecordedTrace::kindMask);
            if (!inCacheStream(CacheStream::Fetch, kind, chunk.vaddr[i]))
                continue;
            _vc.access(chunk.paddr[i]);
            ++_delivered;
        }
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
    replay(TraceChunkView chunk) override
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
 * Hierarchy adapter: both cache streams, interleaved in trace order,
 * through a UnifiedCache or TwoLevelCache. Fetches are always
 * delivered (like the I-cache component); data references pass the
 * kseg1 filter (like the D-cache component), so hierarchy counters
 * compose with the split legs' semantics.
 */
class HierarchyComponent final : public ComponentReplayer
{
  public:
    explicit HierarchyComponent(const HierarchyParams &params)
    {
        if (params.unified())
            _unified = std::make_unique<UnifiedCache>(
                params.l1i, params.penalties);
        else
            _split = std::make_unique<TwoLevelCache>(params);
    }

    void
    replay(TraceChunkView chunk) override
    {
        for (std::size_t i = 0; i < chunk.size; ++i) {
            const RefKind kind =
                RefKind(chunk.flags[i] & RecordedTrace::kindMask);
            const std::uint32_t vaddr = chunk.vaddr[i];
            if (!inCacheStream(CacheStream::Fetch, kind, vaddr) &&
                !inCacheStream(CacheStream::Data, kind, vaddr))
                continue;
            if (_unified != nullptr)
                _unified->access(chunk.paddr[i], kind);
            else
                _split->access(chunk.paddr[i], kind);
            ++_delivered;
        }
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
    std::unique_ptr<UnifiedCache> _unified;
    std::unique_ptr<TwoLevelCache> _split;
    std::uint64_t _delivered = 0;
};

} // namespace

std::unique_ptr<ComponentReplayer>
makeComponent(const ComponentSlot &slot,
              const MachineParams &reference_machine)
{
    switch (slot.kind) {
      case ComponentKind::ICache:
        return std::make_unique<CacheComponent>(
            std::get<CacheGeometry>(slot.params), CacheStream::Fetch);
      case ComponentKind::DCache:
        return std::make_unique<CacheComponent>(
            std::get<CacheGeometry>(slot.params), CacheStream::Data);
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
    // the live hook produced. Events pinned past the final reference
    // never fire, matching RecordedTrace::replay.
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

std::string
encodeComponentCounters(const ComponentCounters &counters)
{
    return std::visit(
        [](const auto &s) { return store::encodeCounters(s); }, counters);
}

bool
decodeComponentCounters(std::string_view payload, ComponentKind kind,
                        ComponentCounters &counters)
{
    // The payload carries no kind tag: the store key already
    // fingerprints the kind, so shards written by the pre-component
    // engine decode unchanged.
    const auto decode = [&](auto s) {
        if (!store::decodeCounters(payload, s))
            return false;
        counters = s;
        return true;
    };
    switch (kind) {
      case ComponentKind::ICache:
      case ComponentKind::DCache:
        return decode(CacheStats());
      case ComponentKind::Tlb:
        return decode(MmuStats());
      case ComponentKind::Victim:
        return decode(VictimStats());
      case ComponentKind::WriteBuffer:
        return decode(WriteBufferStats());
      case ComponentKind::Hierarchy:
        return decode(HierarchyStats());
    }
    return false;
}

} // namespace oma
