/**
 * @file
 * Seeded request generator of the allocation-query benchmark.
 *
 * Each workload is a list of setup requests (answered before timing
 * starts) plus a stream of request batches the timed closed loop
 * sends one after another. Every request is an
 * `oma-allocation-request-v1` line produced by api::encodeRequest,
 * exactly what `oma_query --emit` would send; the same seed always
 * yields the same lines.
 */

#ifndef PERFBENCH_REQUESTS_HH
#define PERFBENCH_REQUESTS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** The benchmark's query shapes (ROADMAP aim 1). */
enum class Workload
{
    Cold,      //!< Fresh measurement per question, empty store.
    WarmSweep, //!< New knobs over stored measurements.
    FullyWarm, //!< Questions whose answers are already stored.
};

[[nodiscard]] bool workloadFromName(std::string_view name, Workload &out);
[[nodiscard]] const char *workloadName(Workload workload);

/** References simulated per workload of the six-workload mix, for
 * cold questions. */
inline constexpr std::uint64_t coldReferences = 250'000;
/** The same for the stored measurements of warm-sweep and fully-warm:
 * smaller, so a run repeats each question shape often enough for its
 * figures to settle. */
inline constexpr std::uint64_t warmReferences = 100'000;

/** One request batch: the lines of one answerBatch() call. */
using Batch = std::vector<std::string>;

struct GeneratedWorkload
{
    /** Answered one per batch, before timing, on every setup pass. */
    std::vector<std::string> setup;
    /** The timed stream, in send order. */
    std::vector<Batch> batches;
};

/**
 * Generate @p workload's requests from @p seed. @p threads is the
 * lane count written into every request's execution field; it never
 * changes an answer.
 */
[[nodiscard]] GeneratedWorkload generate(Workload workload,
                                         std::uint64_t seed,
                                         unsigned threads);

/** Batches per shape cycle: a timed run always ends on a whole cycle,
 * so every run of a workload weighs its shapes alike. */
[[nodiscard]] std::size_t cycleLength(Workload workload,
                                      const std::vector<Batch> &batches);

/** Write @p batches as NDJSON, a blank line closing each batch. */
void writeBatches(const std::string &path,
                  const std::vector<Batch> &batches);

/** Inverse of writeBatches(); false when the file cannot be read. */
[[nodiscard]] bool readBatches(const std::string &path,
                               std::vector<Batch> &batches);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_HH
