/**
 * @file
 * Byte codecs for replay shards and recordings.
 *
 * The sweep stores one artifact kind: one replay shard's exact
 * counters (a component's CacheStats, MmuStats, VictimStats,
 * WriteBufferStats or HierarchyStats, or the reference machine's
 * MachineShard). Every codec stores raw counters — never derived
 * ratios — so a decoded shard reproduces the live result and its
 * exported metrics bit-for-bit; that is the store's whole
 * bitwise-identity guarantee (tests/core/test_store_sweep.cc).
 *
 * One codec serves every counter record: encodeCounters() writes the
 * record's shape word, when it declares one, then each field its
 * forEachCounter() lists, in list order. The list fixes the bytes,
 * not the struct layout, so adding a counter is one edit to the list.
 *
 * Encoding is little-endian-agnostic host byte order via memcpy
 * (entries are per-machine caches; the fingerprint scheme ages them
 * out on format changes). Decoders are bounds-checked and return
 * false on any framing mismatch, which callers treat as a store miss.
 *
 * encodeTrace() serializes a complete RecordedTrace (the output of
 * the serial record phase), running each column chunk through the
 * delta/varint codec (trace/codec.hh) with per-chunk checksums, a
 * fraction of the packed 10 B/ref footprint. No query stores or reads
 * one: the store holds no trace and nothing writes a recording to
 * disk, because recording again costs what a get and a decode would.
 * The codec stays for bench_speed's `trace/bytes_per_ref` gauge and
 * the benchmark's traced mode (perfbench/layers.cc), its two callers.
 */

#ifndef OMA_STORE_CODEC_HH
#define OMA_STORE_CODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/victim.hh"
#include "machine/writebuffer.hh"
#include "tlb/mmu.hh"
#include "trace/recorded.hh"

namespace oma::store
{

/** Version of the trace payload codec (encodeTrace/decodeTrace).
 * Every shard and answer key keeps it as `trace.format_version`, as
 * when the store held traces, so those keys keep their bytes. */
inline constexpr std::uint32_t traceFormatVersion = 3;

/** Append @p v's raw host-order bytes: an integer, a double's bits,
 * or an integer array element by element. */
template <class T>
void
appendRaw(std::string &out, const T &v)
{
    static_assert(std::is_arithmetic_v<std::remove_all_extents_t<T>>);
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

/** Bounds-checked cursor over an encoded payload (the store's shard
 * and trace payloads, and the query engine's measurement payload). */
class Reader
{
  public:
    explicit Reader(std::string_view in) : _in(in) {}

    /** Read the next sizeof(v) bytes into @p v, as appendRaw()
     * wrote them. */
    template <class T>
    bool
    get(T &v)
    {
        return raw(&v, sizeof v);
    }

    /** Borrow the next @p n bytes without copying them. */
    bool
    bytes(std::size_t n, std::string_view &v)
    {
        if (remaining() < n)
            return fail();
        v = _in.substr(_pos, n);
        _pos += n;
        return true;
    }

    /** True when every byte was consumed and nothing failed. */
    [[nodiscard]] bool
    done() const
    {
        return _ok && _pos == _in.size();
    }

  private:
    bool
    raw(void *dst, std::size_t n)
    {
        if (remaining() < n)
            return fail();
        std::memcpy(dst, _in.data() + _pos, n);
        _pos += n;
        return true;
    }

    [[nodiscard]] std::size_t remaining() const
    {
        return _in.size() - _pos;
    }

    bool
    fail()
    {
        _ok = false;
        return false;
    }

    std::string_view _in;
    std::size_t _pos = 0;
    bool _ok = true;
};

/**
 * The reference-machine replay shard: everything task 0 of a sweep
 * contributes to the SweepResult and the run report — including the
 * two facts a SweepResult otherwise takes from the recording, so a
 * sweep whose every shard is stored never needs the trace.
 */
struct MachineShard
{
    std::uint64_t instructions = 0;
    std::uint64_t icacheStall = 0;
    std::uint64_t dcacheStall = 0;
    std::uint64_t wbStall = 0;
    std::uint64_t tlbStall = 0;
    std::uint64_t wbStores = 0;
    std::uint64_t wbStallCycles = 0;
    /** References in the replayed recording. */
    std::uint64_t references = 0;
    /** The recording's non-memory stall CPI, stored as raw bits. */
    double otherCpi = 0.0;

    /** Call @p f(name, s.field...) for every field, in store-payload
     * order (CacheStats::forEachCounter). The first five names are
     * the sweep's `machine/` counters; the sweep exports the
     * write-buffer pair as `wb/stores` and `wb/stall_cycles`. */
    template <class F, class... S>
    static void
    forEachCounter(F &&f, S &&...s)
    {
        f("instructions", s.instructions...);
        f("icache_stall", s.icacheStall...);
        f("dcache_stall", s.dcacheStall...);
        f("wb_stall", s.wbStall...);
        f("tlb_stall", s.tlbStall...);
        f("wb_stores", s.wbStores...);
        f("wb_stall_cycles", s.wbStallCycles...);
        f("references", s.references...);
        f("other_cpi", s.otherCpi...);
    }
};

/** Serialize a recording (references, events, otherCpi) through the
 * v3 delta/varint chunk codec. */
[[nodiscard]] std::string encodeTrace(const RecordedTrace &trace);

/** @retval false on framing mismatch, a checksum mismatch or a chunk
 * that fails delta/varint decoding. */
[[nodiscard]] bool decodeTrace(std::string_view payload,
                               RecordedTrace &trace);

/**
 * Encode a counter record (CacheStats, MmuStats, VictimStats,
 * WriteBufferStats, HierarchyStats or MachineShard): its shape word,
 * if it declares one, then every field its forEachCounter() lists,
 * as raw host-order bytes (an array element by element, a double as
 * its raw bits).
 */
template <class Stats>
[[nodiscard]] std::string encodeCounters(const Stats &s);

/** Inverse of encodeCounters(); sets @p s only on success.
 * @retval false on a wrong shape word or any other length than the
 * record's exact payload size, so a shard of an older layout reads as
 * a miss and is replayed. */
template <class Stats>
[[nodiscard]] bool decodeCounters(std::string_view payload, Stats &s);

/** encodeCounters() for the reference machine's shard. */
[[nodiscard]] inline std::string
encodeMachineShard(const MachineShard &s)
{
    return encodeCounters(s);
}

} // namespace oma::store

#endif // OMA_STORE_CODEC_HH
