/**
 * @file
 * Implementation of the batched cache replay drivers.
 */

#include "cache/replay.hh"

#include <vector>

namespace oma
{

namespace
{

/** Stream every chunk's compacted @p stream into @p sim, a Cache or
 * a Cheetah (both offer the same two batch kernels). */
template <typename Sim>
std::uint64_t
replayStream(const RecordedTrace &trace, CacheStream stream, Sim &sim)
{
    std::vector<std::uint32_t> paddr;
    std::vector<std::uint8_t> flags;
    paddr.reserve(RecordedTrace::chunkRefs);
    if (stream == CacheStream::Data)
        flags.reserve(RecordedTrace::chunkRefs);
    std::uint64_t delivered = 0;
    for (std::size_t c = 0; c < trace.numChunks(); ++c) {
        compactCacheStream(trace.chunkView(c), stream, paddr, flags);
        if (stream == CacheStream::Fetch)
            sim.replayFetchBatch(paddr.data(), paddr.size());
        else
            sim.replayDataBatch(paddr.data(), flags.data(), paddr.size());
        delivered += paddr.size();
    }
    return delivered;
}

} // namespace

std::uint64_t
replayCacheStream(const RecordedTrace &trace, CacheStream stream,
                  Cache &cache)
{
    return replayStream(trace, stream, cache);
}

std::uint64_t
replayCacheStream(const RecordedTrace &trace, CacheStream stream,
                  Cheetah &pass)
{
    return replayStream(trace, stream, pass);
}

} // namespace oma
