/**
 * @file
 * Implementation of the one-pass cache replay driver.
 */

#include "cache/replay.hh"

#include <vector>

namespace oma
{

std::uint64_t
replayCacheStream(const RecordedTrace &trace, CacheStream stream,
                  Cheetah &pass)
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
            pass.replayFetchBatch(paddr.data(), paddr.size());
        else
            pass.replayDataBatch(paddr.data(), flags.data(), paddr.size());
        delivered += paddr.size();
    }
    return delivered;
}

} // namespace oma
