/**
 * @file
 * Out-of-line pieces of RecordedTrace.
 */

#include "trace/recorded.hh"

#include "support/logging.hh"

namespace oma
{

void
RecordedTrace::checkEncodable(const MemRef &ref)
{
    fatalIf(ref.vaddr > 0xffffffffULL || ref.paddr > 0xffffffffULL,
            "reference does not fit the packed 32-bit trace encoding");
    fatalIf(ref.asid > 0xff,
            "ASID does not fit the packed trace encoding");
}

MemRef
RecordedTrace::at(std::uint64_t i) const
{
    fatalIf(i >= _size, "trace reference index out of range");
    const Chunk &c = _chunks[i / chunkRefs];
    return decode(c, std::size_t(i % chunkRefs));
}

TraceChunkView
RecordedTrace::chunkView(std::size_t c) const
{
    fatalIf(c >= _chunks.size(), "trace chunk index out of range");
    const Chunk &chunk = _chunks[c];
    return {chunk.vaddr.data(), chunk.paddr.data(),
            chunk.asid.data(),  chunk.flags.data(),
            chunk.size(),       std::uint64_t(c) * chunkRefs};
}

void
compactCacheStream(const TraceChunkView &chunk, CacheStream stream,
                   std::vector<std::uint32_t> &paddr,
                   std::vector<std::uint8_t> &flags)
{
    paddr.clear();
    flags.clear();
    for (std::size_t i = 0; i < chunk.size; ++i) {
        const RefKind kind =
            RefKind(chunk.flags[i] & RecordedTrace::kindMask);
        if (!inCacheStream(stream, kind, chunk.vaddr[i]))
            continue;
        paddr.push_back(chunk.paddr[i]);
        if (stream == CacheStream::Data)
            flags.push_back(chunk.flags[i]);
    }
}

void
RecordedTrace::newChunk()
{
    Chunk c;
    c.vaddr.reserve(chunkRefs);
    c.paddr.reserve(chunkRefs);
    c.asid.reserve(chunkRefs);
    c.flags.reserve(chunkRefs);
    _chunks.push_back(std::move(c));
}

} // namespace oma
