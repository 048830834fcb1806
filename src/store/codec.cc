/**
 * @file
 * Implementation of the artifact byte codecs.
 */

#include "store/codec.hh"

#include <algorithm>
#include <vector>

#include "trace/codec.hh"

namespace oma::store
{

std::string
encodeTrace(const RecordedTrace &trace)
{
    // Header, then the event section (checksummed), then one framed
    // delta/varint payload per column chunk. Events come first so
    // the decoder can interleave them while streaming the chunks.
    std::string out;
    appendRaw(out, trace.size());
    appendRaw(out, std::uint64_t(trace.events().size()));
    appendRaw(out, trace.otherCpi());
    const std::size_t events_start = out.size();
    for (const TraceEvent &e : trace.events()) {
        appendRaw(out, e.index);
        appendRaw(out, e.vpn);
        appendRaw(out, e.asid);
        appendRaw(out, std::uint8_t(e.global ? 1 : 0));
    }
    appendRaw(out, trace::fnv1a32(
                       std::string_view(out).substr(events_start)));
    for (std::size_t c = 0; c < trace.numChunks(); ++c) {
        const TraceChunkView v = trace.chunkView(c);
        const std::string chunk = trace::encodeColumns(
            v.vaddr, v.paddr, v.asid, v.flags, v.size);
        appendRaw(out, std::uint32_t(v.size));
        appendRaw(out, std::uint32_t(chunk.size()));
        appendRaw(out, trace::fnv1a32(chunk));
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
    if (!r.get(size) || !r.get(event_count) || !r.get(other_cpi))
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
        !r.get(events_sum) ||
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
            if (!ev.get(e.index) || !ev.get(e.vpn) || !ev.get(e.asid) ||
                !ev.get(global)) {
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
        if (!r.get(ref_count) || !r.get(chunk_bytes) ||
            !r.get(chunk_sum) || ref_count != expect ||
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

template <class Stats>
std::string
encodeCounters(const Stats &s)
{
    std::string out;
    if constexpr (requires { Stats::shapeWord; })
        appendRaw(out, Stats::shapeWord);
    Stats::forEachCounter(
        [&out](const char *, const auto &field) { appendRaw(out, field); },
        s);
    return out;
}

template <class Stats>
bool
decodeCounters(std::string_view payload, Stats &s)
{
    Reader r(payload);
    if constexpr (requires { Stats::shapeWord; }) {
        std::uint64_t shape = 0;
        if (!r.get(shape) || shape != Stats::shapeWord)
            return false;
    }
    Stats decoded;
    Stats::forEachCounter(
        [&r](const char *, auto &field) { r.get(field); }, decoded);
    if (!r.done())
        return false;
    s = decoded;
    return true;
}

template std::string encodeCounters(const CacheStats &);
template std::string encodeCounters(const MmuStats &);
template std::string encodeCounters(const VictimStats &);
template std::string encodeCounters(const WriteBufferStats &);
template std::string encodeCounters(const HierarchyStats &);
template std::string encodeCounters(const MachineShard &);
template bool decodeCounters(std::string_view, CacheStats &);
template bool decodeCounters(std::string_view, MmuStats &);
template bool decodeCounters(std::string_view, VictimStats &);
template bool decodeCounters(std::string_view, WriteBufferStats &);
template bool decodeCounters(std::string_view, HierarchyStats &);
template bool decodeCounters(std::string_view, MachineShard &);

} // namespace oma::store
