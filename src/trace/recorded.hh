/**
 * @file
 * A compact, replayable recording of a reference stream.
 *
 * The paper's methodology is trace-centric: Monster captured one
 * reference stream and the cache and stall analyses consumed that
 * same stream. RecordedTrace is the in-memory equivalent — one
 * recording, many consumers, including the sweep's TLB slots that
 * stand in for Tapeworm:
 *
 * * *Packed columnar storage.* References are stored column-wise in
 *   fixed-size chunks: 32-bit virtual and physical addresses, an
 *   8-bit ASID and an 8-bit kind/mode/mapped flag byte — 10 bytes per
 *   reference instead of sizeof(MemRef). A consumer that only needs
 *   physical addresses (a cache replay) touches only the paddr and
 *   flag columns, which is what makes replay cache-friendly. The
 *   32-bit fields are exact, not lossy: the modelled machine is an
 *   R2000 (32-bit virtual addresses, 30-bit pseudo-physical frames,
 *   6-bit ASIDs); append() fails fatally on anything wider.
 *
 * * *Inline invalidation events.* OS page invalidations are pinned to
 *   their trace position (the index of the reference they precede)
 *   and replayed at exactly that point, replacing the live
 *   setInvalidateHook side channel for record-then-replay engines.
 *
 * * *Typed replay views.* replay() walks the full stream (with or
 *   without events); replayFetchPaddrs() yields instruction-fetch
 *   physical addresses only; replayCachedData() yields data accesses
 *   surviving the kseg1 (uncached) filter. One recording therefore
 *   replaces the three redundant per-consumer vectors the sweep
 *   engine used to materialize. Both views, the cache components and
 *   the one-pass cache driver filter through inCacheStream().
 */

#ifndef OMA_TRACE_RECORDED_HH
#define OMA_TRACE_RECORDED_HH

#include <cstdint>
#include <vector>

#include "tlb/mips_va.hh"
#include "trace/memref.hh"

namespace oma
{

/**
 * A page invalidation pinned to its position in the stream: it takes
 * effect immediately before the reference with number @c index is
 * replayed (the position the OS fired it at while generating that
 * reference).
 */
struct TraceEvent
{
    std::uint64_t index;
    std::uint64_t vpn;
    std::uint32_t asid;
    bool global;
};

/**
 * A borrowed, read-only view of one storage chunk's packed columns.
 * The pointers alias the trace's own column vectors and stay valid
 * until the trace is mutated or destroyed. This is the input format
 * of the component replay driver (core/component.hh), the one-pass
 * cache driver (cache/replay.hh) and the v3 chunk codec
 * (trace/codec.hh): consumers stream whole columns instead of
 * decoding one MemRef per reference.
 */
struct TraceChunkView
{
    const std::uint32_t *vaddr;
    const std::uint32_t *paddr;
    const std::uint8_t *asid;
    const std::uint8_t *flags;
    /** References in this chunk (chunkRefs except for the tail). */
    std::size_t size;
    /** Trace-wide index of the chunk's first reference. */
    std::uint64_t baseIndex;
};

/** The two reference streams a cache replays from one recording. */
enum class CacheStream : std::uint8_t
{
    Fetch, //!< Every instruction fetch.
    Data,  //!< Loads and stores outside kseg1 (the uncached segment).
};

/**
 * Whether a reference of @p kind at @p vaddr belongs to @p stream:
 * the one filter every cache replay of a recording applies.
 */
constexpr bool
inCacheStream(CacheStream stream, RefKind kind, std::uint64_t vaddr)
{
    return stream == CacheStream::Fetch
        ? kind == RefKind::IFetch
        : kind != RefKind::IFetch && !isUncached(vaddr);
}

/**
 * Compact the references of @p chunk that @p stream carries into
 * @p paddr, in order, and (for the data stream) their flag bytes into
 * @p flags. Both vectors are cleared first.
 */
void compactCacheStream(const TraceChunkView &chunk, CacheStream stream,
                        std::vector<std::uint32_t> &paddr,
                        std::vector<std::uint8_t> &flags);

/** A compact recorded reference stream with inline events. */
class RecordedTrace
{
  public:
    /** References per storage chunk. */
    static constexpr std::size_t chunkRefs = 1 << 16;

    // ----- recording -----

    /** Append one reference (fatal if it does not fit the packed
     * 32-bit encoding — impossible for model-generated streams). */
    void
    append(const MemRef &ref)
    {
        checkEncodable(ref);
        if (_chunks.empty() || _chunks.back().size() >= chunkRefs)
            newChunk();
        Chunk &c = _chunks.back();
        c.vaddr.push_back(std::uint32_t(ref.vaddr));
        c.paddr.push_back(std::uint32_t(ref.paddr));
        c.asid.push_back(std::uint8_t(ref.asid));
        c.flags.push_back(packFlags(ref));
        ++_size;
    }

    /** Record a page invalidation at the current position (it will
     * replay immediately before the next appended reference). */
    void
    recordInvalidation(std::uint64_t vpn, std::uint32_t asid,
                       bool global)
    {
        _events.push_back({_size, vpn, asid, global});
    }

    /** Attach the stream's configuration-independent non-memory
     * stall rate (System::otherCpiSoFar at the end of recording). */
    void setOtherCpi(double cpi) { _otherCpi = cpi; }

    // ----- inspection -----

    [[nodiscard]] std::uint64_t size() const { return _size; }
    [[nodiscard]] bool empty() const { return _size == 0; }
    [[nodiscard]] const std::vector<TraceEvent> &events() const
    {
        return _events;
    }
    [[nodiscard]] double otherCpi() const { return _otherCpi; }

    /** Decode the reference at index @p i (exact round trip; fatal
     * when @p i is out of range). */
    [[nodiscard]] MemRef at(std::uint64_t i) const;

    /** Number of storage chunks (0 for an empty trace). */
    [[nodiscard]] std::size_t numChunks() const
    {
        return _chunks.size();
    }

    /** Borrow the packed columns of chunk @p c (fatal when @p c is
     * out of range). */
    [[nodiscard]] TraceChunkView chunkView(std::size_t c) const;

    /** Packed bytes held by the recording (columns + events); the
     * number the bytes-per-reference bench counters report. */
    [[nodiscard]] std::uint64_t
    byteSize() const
    {
        std::uint64_t bytes = _events.size() * sizeof(TraceEvent);
        for (const Chunk &c : _chunks)
            bytes += c.size() * packedRefBytes;
        return bytes;
    }

    /** Packed storage cost of one reference (columns only). */
    static constexpr std::uint64_t packedRefBytes = 4 + 4 + 1 + 1;

    // ----- replay views -----

    /** Full-stream replay without events: fn(const MemRef &). */
    template <typename RefFn>
    void
    replay(RefFn &&fn) const
    {
        for (const Chunk &c : _chunks)
            for (std::size_t i = 0; i < c.size(); ++i)
                fn(decode(c, i));
    }

    /**
     * Full-stream replay with inline events: every event fires
     * through @p onEvent immediately before @p onRef sees the
     * reference it is pinned to — the order the live hook produced.
     */
    template <typename RefFn, typename EvFn>
    void
    replay(RefFn &&onRef, EvFn &&onEvent) const
    {
        std::size_t e = 0;
        std::uint64_t index = 0;
        for (const Chunk &c : _chunks) {
            for (std::size_t i = 0; i < c.size(); ++i, ++index) {
                while (e < _events.size() && _events[e].index == index)
                    onEvent(_events[e++]);
                onRef(decode(c, i));
            }
        }
    }

    /** Instruction-fetch view: fn(std::uint64_t paddr) per fetch. */
    template <typename Fn>
    void
    replayFetchPaddrs(Fn &&fn) const
    {
        for (const Chunk &c : _chunks) {
            for (std::size_t i = 0; i < c.size(); ++i) {
                if (inCacheStream(CacheStream::Fetch,
                                  RefKind(c.flags[i] & kindMask),
                                  c.vaddr[i]))
                    fn(std::uint64_t(c.paddr[i]));
            }
        }
    }

    /** Cached-data view: fn(std::uint64_t paddr, RefKind kind) per
     * data access surviving the kseg1 (uncached) filter. */
    template <typename Fn>
    void
    replayCachedData(Fn &&fn) const
    {
        for (const Chunk &c : _chunks) {
            for (std::size_t i = 0; i < c.size(); ++i) {
                const RefKind kind = RefKind(c.flags[i] & kindMask);
                if (inCacheStream(CacheStream::Data, kind, c.vaddr[i]))
                    fn(std::uint64_t(c.paddr[i]), kind);
            }
        }
    }

    // ----- packed encoding (shared with the trace codec) -----

    // Flag byte: kind in bits 0-1, mode in bit 2, mapped in bit 3.
    static constexpr std::uint8_t kindMask = 0x3;
    static constexpr std::uint8_t modeBit = 0x4;
    static constexpr std::uint8_t mappedBit = 0x8;

    static std::uint8_t
    packFlags(const MemRef &ref)
    {
        return std::uint8_t(std::uint8_t(ref.kind) |
                            (ref.mode == Mode::Kernel ? modeBit : 0) |
                            (ref.mapped ? mappedBit : 0));
    }

    static void
    unpackFlags(std::uint8_t flags, MemRef &ref)
    {
        ref.kind = RefKind(flags & kindMask);
        ref.mode = (flags & modeBit) ? Mode::Kernel : Mode::User;
        ref.mapped = (flags & mappedBit) != 0;
    }

    /** Fatal unless @p ref fits the packed encoding. */
    static void checkEncodable(const MemRef &ref);

  private:
    struct Chunk
    {
        std::vector<std::uint32_t> vaddr;
        std::vector<std::uint32_t> paddr;
        std::vector<std::uint8_t> asid;
        std::vector<std::uint8_t> flags;

        std::size_t size() const { return vaddr.size(); }
    };

    static MemRef
    decode(const Chunk &c, std::size_t i)
    {
        MemRef ref;
        ref.vaddr = c.vaddr[i];
        ref.paddr = c.paddr[i];
        ref.asid = c.asid[i];
        unpackFlags(c.flags[i], ref);
        return ref;
    }

    void newChunk();

    std::vector<Chunk> _chunks;
    std::vector<TraceEvent> _events;
    std::uint64_t _size = 0;
    double _otherCpi = 0.0;
};

} // namespace oma

#endif // OMA_TRACE_RECORDED_HH
