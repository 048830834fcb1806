/**
 * @file
 * The run-metrics registry: named counters, gauges and histograms.
 *
 * The paper's whole method is measurement — Monster's stall
 * histograms and Tapeworm's in-kernel counters exist so every CPI
 * claim is attributable to a component. MetricRegistry is the
 * reproduction's equivalent apparatus: simulation components export
 * their event counts into one named, ordered registry, and run
 * reports (obs/report.hh) serialize that registry so every bench run
 * leaves a machine-readable record.
 *
 * Determinism contract (docs/OBSERVABILITY.md):
 *
 * * Metrics never feed back into simulation. An engine run into a
 *   caller's Observation produces bitwise-identical results to one
 *   run into Observation::none() (tests/core/test_observed_sweep.cc
 *   holds this at 1 and 4 threads).
 * * Parallel engines write only per-task result slots on their
 *   lanes and export counters from the finished result after the
 *   parallel phase, summed in task order, so event counts are
 *   identical for any thread count.
 * * Only timing values (Span gauges, rates derived from them) read
 *   the wall clock, exclusively through oma::Clock (support/clock.hh);
 *   they vary run to run and are reported, never compared.
 */

#ifndef OMA_OBS_METRICS_HH
#define OMA_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "support/clock.hh"
#include "support/sync.hh"

namespace oma::obs
{

/**
 * A power-of-two-bucketed histogram of non-negative integer samples
 * (event counts, sizes, durations in ns). Bucket b holds samples
 * whose bit width is b, i.e. values in [2^(b-1), 2^b); bucket 0
 * holds zeros. Merging is element-wise, so shard merge order cannot
 * change the result.
 */
struct Histogram
{
    static constexpr unsigned numBuckets = 65;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; //!< Valid only when count > 0.
    std::uint64_t max = 0; //!< Valid only when count > 0.
    std::uint64_t buckets[numBuckets] = {};

    void
    add(std::uint64_t sample)
    {
        if (count == 0 || sample < min)
            min = sample;
        if (count == 0 || sample > max)
            max = sample;
        ++count;
        sum += sample;
        ++buckets[bucketOf(sample)];
    }

    void
    merge(const Histogram &other)
    {
        if (other.count == 0)
            return;
        if (count == 0 || other.min < min)
            min = other.min;
        if (count == 0 || other.max > max)
            max = other.max;
        count += other.count;
        sum += other.sum;
        for (unsigned b = 0; b < numBuckets; ++b)
            buckets[b] += other.buckets[b];
    }

    [[nodiscard]] double
    mean() const
    {
        return count == 0 ? 0.0 : double(sum) / double(count);
    }

    /** Bucket index of @p sample (its bit width). */
    static unsigned
    bucketOf(std::uint64_t sample)
    {
        unsigned width = 0;
        while (sample != 0) {
            ++width;
            sample >>= 1;
        }
        return width;
    }

    /** Exclusive upper bound of bucket @p b (0 for the zero bucket). */
    static std::uint64_t
    bucketBound(unsigned b)
    {
        return b == 0 ? 1 : (b >= 64 ? ~std::uint64_t(0)
                                     : std::uint64_t(1) << b);
    }
};

/**
 * A registry of named metrics. Names are slash-separated paths
 * (`icache/misses`, `time_ms/sweep/replay`; scheme in
 * docs/OBSERVABILITY.md). Storage is std::map so every iteration —
 * serialization, merging, diffing — is in name order by construction.
 */
class MetricRegistry
{
  public:
    // ----- recording -----

    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        _counters[name] += delta;
    }

    /** Set gauge @p name to @p value (last write wins, also on
     * merge()). */
    void
    set(const std::string &name, double value)
    {
        _gauges[name] = value;
        _setGauges.insert(name);
    }

    /** Add @p value to gauge @p name (creating it at zero); merge()
     * adds it too. Span time gauges are written this way. */
    void
    accumulate(const std::string &name, double value)
    {
        _gauges[name] += value;
    }

    /** Record one sample into histogram @p name. */
    void
    observe(const std::string &name, std::uint64_t sample)
    {
        _histograms[name].add(sample);
    }

    // ----- inspection -----

    /** Counter value, 0 when absent. */
    [[nodiscard]] std::uint64_t
    counter(const std::string &name) const
    {
        const auto it = _counters.find(name);
        return it == _counters.end() ? 0 : it->second;
    }

    /** Gauge value, 0.0 when absent. */
    [[nodiscard]] double
    gauge(const std::string &name) const
    {
        const auto it = _gauges.find(name);
        return it == _gauges.end() ? 0.0 : it->second;
    }

    [[nodiscard]] bool
    empty() const
    {
        return _counters.empty() && _gauges.empty() &&
            _histograms.empty();
    }

    [[nodiscard]] const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return _counters;
    }

    [[nodiscard]] const std::map<std::string, double> &
    gauges() const
    {
        return _gauges;
    }

    [[nodiscard]] const std::map<std::string, Histogram> &
    histograms() const
    {
        return _histograms;
    }

    // ----- merging -----

    /**
     * Fold @p shard into this registry: counters, histograms and
     * accumulate()d gauges (every Span's `time_ms/`, the sweep's
     * `core_ms/`) sum, so a batch reports all its questions' time;
     * a gauge the shard set() takes the shard's value (last write
     * wins). QueryEngine::answerBatch calls this over its
     * per-question registries in group order, so the merged registry
     * is a pure function of the batch, not of the schedule.
     */
    void merge(const MetricRegistry &shard);

  private:
    std::map<std::string, std::uint64_t> _counters;
    std::map<std::string, double> _gauges;
    /** Names of the gauges set() wrote: merge() assigns them. */
    std::set<std::string> _setGauges;
    std::map<std::string, Histogram> _histograms;
};

/**
 * RAII wall-clock timer for one named phase. On stop (or
 * destruction) it accumulates the elapsed milliseconds into gauge
 * `time_ms/<name>` and bumps counter `calls/<name>`. Backed by
 * oma::Clock — the timing is observability-only and never feeds
 * simulation.
 */
class Span
{
  public:
    Span(MetricRegistry &registry, std::string name)
        : _registry(&registry), _name(std::move(name)),
          _startNs(Clock::nowNs())
    {}

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span() { stop(); }

    /** Stop the timer and record; idempotent. */
    void
    stop()
    {
        if (_registry == nullptr)
            return;
        _registry->accumulate("time_ms/" + _name,
                              Clock::toMs(Clock::nowNs() - _startNs));
        _registry->add("calls/" + _name);
        _registry = nullptr;
    }

  private:
    MetricRegistry *_registry;
    std::string _name;
    std::int64_t _startNs;
};

/**
 * Throttled progress reporting for long sweeps. Disabled by default
 * (a default-constructed Progress swallows ticks); when constructed
 * with a callback it fires roughly @p updates times over @p total
 * ticks. tick() is thread-safe; callbacks may be invoked
 * concurrently from worker lanes, so they must not touch results —
 * route them to inform() (informSink) or a UI, nothing else.
 */
class Progress
{
  public:
    /** fn(done, total). */
    using Callback = std::function<void(std::uint64_t, std::uint64_t)>;

    Progress() = default;

    Progress(std::uint64_t total, Callback callback,
             std::uint64_t updates = 10)
        : _total(total), _stride(total / (updates ? updates : 1)),
          _callback(std::move(callback))
    {
        if (_stride == 0)
            _stride = 1;
    }

    [[nodiscard]] bool enabled() const { return bool(_callback); }

    /** Record @p n completed units; fires the callback on stride
     * boundaries and on completion. The counter update is guarded;
     * the callback runs outside the lock so a slow sink never
     * serializes worker lanes (callbacks may therefore still be
     * invoked concurrently and slightly out of order). */
    void
    tick(std::uint64_t n = 1)
    {
        if (!_callback)
            return;
        std::uint64_t done = 0;
        {
            LockGuard lock(_mutex);
            _done += n;
            done = _done;
        }
        if (done / _stride != (done - n) / _stride || done == _total)
            _callback(done, _total);
    }

    [[nodiscard]] std::uint64_t
    done() const
    {
        LockGuard lock(_mutex);
        return _done;
    }

    /** A callback that routes "`what`: done/total" through inform(). */
    static Callback informSink(std::string what);

  private:
    // oma-lint: allow(guarded-member): immutable after construction.
    std::uint64_t _total = 0;
    // oma-lint: allow(guarded-member): immutable after construction.
    std::uint64_t _stride = 1;
    // oma-lint: allow(guarded-member): immutable after construction.
    Callback _callback;

    /** Guards the tick counter; never held while the callback runs
     * (rank table in sync.hh). */
    mutable Mutex _mutex{OMA_LOCK_RANK(lockrank::obsProgress)};
    std::uint64_t _done OMA_GUARDED_BY(_mutex) = 0;
};

/**
 * The observation sink an instrumented engine fills: pass one to
 * ComponentSweep::run or a strategy's search() to collect metrics
 * and (optionally) progress. Engines always record into one; a
 * caller that wants nothing passes none(). Which Observation an
 * engine records into never changes its results — only what gets
 * reported about them.
 */
struct Observation
{
    MetricRegistry metrics;
    /** Optional progress sink; off (null) by default. */
    Progress *progress = nullptr;

    /** Report one finished unit to the progress sink, if any.
     * Thread-safe: Progress::tick() is. */
    void
    tick() const
    {
        if (progress != nullptr)
            progress->tick();
    }

    /** The calling thread's scratch observation, the default sink of
     * every engine: it records like any other and nothing reads it.
     * Thread-local, so concurrent unobserved callers never share a
     * registry. */
    static Observation &none();
};

} // namespace oma::obs

#endif // OMA_OBS_METRICS_HH
