/**
 * @file
 * Batched trace-replay driver for the one-pass cache engine.
 *
 * The driver walks a recording one storage chunk at a time, compacts
 * the references of one cache stream into contiguous buffers
 * (compactCacheStream: paddr, and for data replays the packed flag
 * byte), and hands each buffer to a Cheetah pass, which reports every
 * cache configuration of one line size.
 * The pass sees exactly the references the per-slot CacheComponent
 * (core/component.hh) and the per-ref views
 * (RecordedTrace::replayFetchPaddrs, replayCachedData) deliver, in
 * the same order (tests/cache/test_cheetah_differential.cc).
 */

#ifndef OMA_CACHE_REPLAY_HH
#define OMA_CACHE_REPLAY_HH

#include <cstdint>

#include "cache/cheetah.hh"
#include "trace/recorded.hh"

namespace oma
{

/**
 * Replay @p stream of @p trace through one multi-configuration pass.
 *
 * @return References delivered to the pass.
 */
std::uint64_t replayCacheStream(const RecordedTrace &trace,
                                CacheStream stream, Cheetah &pass);

} // namespace oma

#endif // OMA_CACHE_REPLAY_HH
