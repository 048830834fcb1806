/**
 * @file
 * Implementation of the artifact byte codecs.
 */

#include "store/codec.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "store/store.hh"
#include "support/logging.hh"
#include "trace/codec.hh"

namespace oma::store
{

namespace
{

void
appendU8(std::string &out, std::uint8_t v)
{
    out.push_back(char(v));
}

void
appendU32(std::string &out, std::uint32_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
appendF64(std::string &out, double v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

/** Bounds-checked cursor over an encoded payload. */
class Reader
{
  public:
    explicit Reader(std::string_view in) : _in(in) {}

    bool
    u8(std::uint8_t &v)
    {
        if (remaining() < sizeof v)
            return fail();
        v = std::uint8_t(_in[_pos]);
        _pos += sizeof v;
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        return raw(&v, sizeof v);
    }

    bool
    u64(std::uint64_t &v)
    {
        return raw(&v, sizeof v);
    }

    bool
    f64(double &v)
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

/** The key text every trace file is framed under. */
Fingerprint
traceFileKey()
{
    Fingerprint key;
    key.u64("trace.format_version", traceFormatVersion);
    key.str("artifact", "trace-file");
    return key;
}

} // namespace

std::string
encodeTrace(const RecordedTrace &trace)
{
    // Header, then the event section (checksummed), then one framed
    // delta/varint payload per column chunk. Events come first so
    // the decoder can interleave them while streaming the chunks.
    std::string out;
    appendU64(out, trace.size());
    appendU64(out, trace.events().size());
    appendF64(out, trace.otherCpi());
    const std::size_t events_start = out.size();
    for (const TraceEvent &e : trace.events()) {
        appendU64(out, e.index);
        appendU64(out, e.vpn);
        appendU32(out, e.asid);
        appendU8(out, e.global ? 1 : 0);
    }
    appendU32(out, trace::fnv1a32(
                       std::string_view(out).substr(events_start)));
    for (std::size_t c = 0; c < trace.numChunks(); ++c) {
        const TraceChunkView v = trace.chunkView(c);
        const std::string chunk = trace::encodeColumns(
            v.vaddr, v.paddr, v.asid, v.flags, v.size);
        appendU32(out, std::uint32_t(v.size));
        appendU32(out, std::uint32_t(chunk.size()));
        appendU32(out, trace::fnv1a32(chunk));
        out += chunk;
    }
    return out;
}

bool
decodeTrace(std::string_view payload, RecordedTrace &trace)
{
    Reader r(payload);
    std::uint64_t size = 0, event_count = 0;
    double other_cpi = 0.0;
    if (!r.u64(size) || !r.u64(event_count) || !r.f64(other_cpi))
        return false;

    // The event section precedes the chunks, but
    // recordInvalidation() pins an event to the *current* append
    // position — so parse the events first, then interleave them
    // while streaming the chunks.
    if (event_count > payload.size()) // also caps the * 21 below
        return false;
    std::string_view event_bytes;
    std::uint32_t events_sum = 0;
    if (!r.bytes(std::size_t(event_count) * 21, event_bytes) ||
        !r.u32(events_sum) ||
        trace::fnv1a32(event_bytes) != events_sum) {
        return false;
    }
    std::vector<TraceEvent> events;
    events.reserve(std::size_t(event_count));
    {
        Reader ev(event_bytes);
        for (std::uint64_t i = 0; i < event_count; ++i) {
            TraceEvent e{};
            std::uint8_t global = 0;
            if (!ev.u64(e.index) || !ev.u64(e.vpn) || !ev.u32(e.asid) ||
                !ev.u8(global)) {
                return false;
            }
            e.global = global != 0;
            events.push_back(e);
        }
        if (!ev.done())
            return false;
    }

    RecordedTrace decoded;
    std::size_t next_event = 0;
    std::uint64_t index = 0;
    trace::ChunkColumns cols;
    while (index < size) {
        // RecordedTrace chunks deterministically, so every chunk but
        // the last must hold exactly chunkRefs references.
        const std::size_t expect = std::size_t(
            std::min<std::uint64_t>(RecordedTrace::chunkRefs,
                                    size - index));
        std::uint32_t ref_count = 0, chunk_bytes = 0, chunk_sum = 0;
        std::string_view chunk;
        if (!r.u32(ref_count) || !r.u32(chunk_bytes) ||
            !r.u32(chunk_sum) || ref_count != expect ||
            !r.bytes(chunk_bytes, chunk) ||
            trace::fnv1a32(chunk) != chunk_sum ||
            !trace::decodeColumns(chunk, expect, cols)) {
            return false;
        }
        for (std::size_t i = 0; i < expect; ++i, ++index) {
            while (next_event < events.size() &&
                   events[next_event].index == index) {
                const TraceEvent &e = events[next_event++];
                decoded.recordInvalidation(e.vpn, e.asid, e.global);
            }
            MemRef ref;
            ref.vaddr = cols.vaddr[i];
            ref.paddr = cols.paddr[i];
            ref.asid = cols.asid[i];
            RecordedTrace::unpackFlags(cols.flags[i], ref);
            decoded.append(ref);
        }
    }
    // Events recorded after the final reference.
    for (; next_event < events.size(); ++next_event) {
        const TraceEvent &e = events[next_event];
        if (e.index != size)
            return false;
        decoded.recordInvalidation(e.vpn, e.asid, e.global);
    }
    if (!r.done())
        return false;
    decoded.setOtherCpi(other_cpi);
    trace = std::move(decoded);
    return true;
}

void
writeTrace(const std::string &path, const RecordedTrace &trace)
{
    ArtifactStore::writeEntryFile(path, traceFileKey().text(),
                                  encodeTrace(trace));
}

RecordedTrace
readTrace(const std::string &path)
{
    std::string payload;
    const ArtifactStore::EntryRead read =
        ArtifactStore::readEntryFile(path, traceFileKey().text(),
                                     payload);
    fatalIf(read == ArtifactStore::EntryRead::Missing,
            "cannot open trace file for reading: " + path);
    RecordedTrace trace;
    fatalIf(read != ArtifactStore::EntryRead::Ok ||
                !decodeTrace(payload, trace),
            "not a current trace file: " + path +
                " (an older format, another kind of file, or "
                "corrupt); re-record it with trace_tools gen");
    return trace;
}

std::string
encodeCacheStats(const CacheStats &s)
{
    std::string out;
    appendU64(out, numRefKinds);
    for (unsigned k = 0; k < numRefKinds; ++k)
        appendU64(out, s.accesses[k]);
    for (unsigned k = 0; k < numRefKinds; ++k)
        appendU64(out, s.misses[k]);
    appendU64(out, s.lineFills);
    appendU64(out, s.writebacks);
    appendU64(out, s.writeThroughWords);
    appendU64(out, s.compulsoryMisses);
    return out;
}

bool
decodeCacheStats(std::string_view payload, CacheStats &s)
{
    Reader r(payload);
    std::uint64_t kinds = 0;
    if (!r.u64(kinds) || kinds != numRefKinds)
        return false;
    CacheStats decoded;
    for (unsigned k = 0; k < numRefKinds; ++k)
        if (!r.u64(decoded.accesses[k]))
            return false;
    for (unsigned k = 0; k < numRefKinds; ++k)
        if (!r.u64(decoded.misses[k]))
            return false;
    if (!r.u64(decoded.lineFills) || !r.u64(decoded.writebacks) ||
        !r.u64(decoded.writeThroughWords) ||
        !r.u64(decoded.compulsoryMisses) || !r.done()) {
        return false;
    }
    s = decoded;
    return true;
}

std::string
encodeMmuStats(const MmuStats &s)
{
    std::string out;
    appendU64(out, numMissClasses);
    appendU64(out, s.translations);
    for (unsigned c = 0; c < numMissClasses; ++c)
        appendU64(out, s.counts[c]);
    for (unsigned c = 0; c < numMissClasses; ++c)
        appendU64(out, s.cycles[c]);
    appendU64(out, s.asidFlushes);
    return out;
}

bool
decodeMmuStats(std::string_view payload, MmuStats &s)
{
    Reader r(payload);
    std::uint64_t classes = 0;
    if (!r.u64(classes) || classes != numMissClasses)
        return false;
    MmuStats decoded;
    if (!r.u64(decoded.translations))
        return false;
    for (unsigned c = 0; c < numMissClasses; ++c)
        if (!r.u64(decoded.counts[c]))
            return false;
    for (unsigned c = 0; c < numMissClasses; ++c)
        if (!r.u64(decoded.cycles[c]))
            return false;
    if (!r.u64(decoded.asidFlushes) || !r.done())
        return false;
    s = decoded;
    return true;
}

std::string
encodeMachineShard(const MachineShard &s)
{
    std::string out;
    appendU64(out, s.instructions);
    appendU64(out, s.icacheStall);
    appendU64(out, s.dcacheStall);
    appendU64(out, s.wbStall);
    appendU64(out, s.tlbStall);
    appendU64(out, s.wbStores);
    appendU64(out, s.wbStallCycles);
    appendU64(out, s.references);
    appendF64(out, s.otherCpi);
    return out;
}

bool
decodeMachineShard(std::string_view payload, MachineShard &s)
{
    Reader r(payload);
    MachineShard decoded;
    if (!r.u64(decoded.instructions) || !r.u64(decoded.icacheStall) ||
        !r.u64(decoded.dcacheStall) || !r.u64(decoded.wbStall) ||
        !r.u64(decoded.tlbStall) || !r.u64(decoded.wbStores) ||
        !r.u64(decoded.wbStallCycles) || !r.u64(decoded.references) ||
        !r.f64(decoded.otherCpi) || !r.done()) {
        return false;
    }
    s = decoded;
    return true;
}

std::string
encodeVictimStats(const VictimStats &s)
{
    std::string out;
    appendU64(out, s.accesses);
    appendU64(out, s.l1Hits);
    appendU64(out, s.victimHits);
    appendU64(out, s.misses);
    return out;
}

bool
decodeVictimStats(std::string_view payload, VictimStats &s)
{
    Reader r(payload);
    VictimStats decoded;
    if (!r.u64(decoded.accesses) || !r.u64(decoded.l1Hits) ||
        !r.u64(decoded.victimHits) || !r.u64(decoded.misses) ||
        !r.done()) {
        return false;
    }
    s = decoded;
    return true;
}

std::string
encodeWriteBufferStats(const WriteBufferStats &s)
{
    std::string out;
    appendU64(out, s.instructions);
    appendU64(out, s.stores);
    appendU64(out, s.stallCycles);
    return out;
}

bool
decodeWriteBufferStats(std::string_view payload, WriteBufferStats &s)
{
    Reader r(payload);
    WriteBufferStats decoded;
    if (!r.u64(decoded.instructions) || !r.u64(decoded.stores) ||
        !r.u64(decoded.stallCycles) || !r.done()) {
        return false;
    }
    s = decoded;
    return true;
}

std::string
encodeHierarchyStats(const HierarchyStats &s)
{
    std::string out;
    appendU64(out, s.instructions);
    appendU64(out, s.dataRefs);
    appendU64(out, s.l1Misses);
    appendU64(out, s.l2Hits);
    appendU64(out, s.l2Misses);
    appendU64(out, s.portConflicts);
    appendU64(out, s.stallCycles);
    return out;
}

bool
decodeHierarchyStats(std::string_view payload, HierarchyStats &s)
{
    Reader r(payload);
    HierarchyStats decoded;
    if (!r.u64(decoded.instructions) || !r.u64(decoded.dataRefs) ||
        !r.u64(decoded.l1Misses) || !r.u64(decoded.l2Hits) ||
        !r.u64(decoded.l2Misses) || !r.u64(decoded.portConflicts) ||
        !r.u64(decoded.stallCycles) || !r.done()) {
        return false;
    }
    s = decoded;
    return true;
}

} // namespace oma::store
