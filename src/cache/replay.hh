/**
 * @file
 * Batched trace-replay drivers for the cache simulators.
 *
 * The drivers walk a recording one storage chunk at a time, compact
 * the references of one cache stream into contiguous buffers
 * (compactCacheStream: paddr, and for data replays the packed flag
 * byte), and hand each buffer to the simulator's batched kernel. The
 * compaction pass touches each column once per chunk; the kernel then
 * streams a dense array.
 *
 * A Cache replays one configuration; a Cheetah replays every LRU
 * write-through write-allocate configuration of one line size in one
 * pass. Both see exactly the references the per-ref views
 * (RecordedTrace::replayFetchPaddrs, replayCachedData) visit, in the
 * same order, so their counters are bitwise-identical to the scalar
 * path (tests/core/test_batched_replay.cc,
 * tests/cache/test_cheetah_differential.cc).
 */

#ifndef OMA_CACHE_REPLAY_HH
#define OMA_CACHE_REPLAY_HH

#include <cstdint>

#include "cache/cache.hh"
#include "cache/cheetah.hh"
#include "trace/recorded.hh"

namespace oma
{

/**
 * Replay @p stream of @p trace through @p cache's batched kernel.
 *
 * @return References delivered to the cache.
 */
std::uint64_t replayCacheStream(const RecordedTrace &trace,
                                CacheStream stream, Cache &cache);

/**
 * Replay @p stream of @p trace through one multi-configuration pass.
 *
 * @return References delivered to the pass.
 */
std::uint64_t replayCacheStream(const RecordedTrace &trace,
                                CacheStream stream, Cheetah &pass);

} // namespace oma

#endif // OMA_CACHE_REPLAY_HH
