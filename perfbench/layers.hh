/**
 * @file
 * Per-layer timing for the traced benchmark run.
 *
 * The engine already emits counters and a few spans into an
 * obs::Observation; it does not time every layer. After the engine
 * answers a batch, LayerTracer re-answers it stage by stage through
 * public calls, timing each call from the benchmark's own code:
 *
 *  - every line: api::decodeRequest, responseKey(), and the response
 *    ArtifactStore::get on the engine's store;
 *  - every question the engine did not serve from a stored answer:
 *    QueryEngine::sweep -> ComponentCpiTables::average ->
 *    QueryEngine::rank -> api::encodeResponse (the bytes must equal
 *    the engine's answer) and the response put;
 *  - every question the engine measured from scratch: System::record,
 *    store::encodeTrace, the trace put, then one flat pool of
 *    reference-Machine and per-kind makeComponent + replayComponent
 *    tasks with their shard puts, each task timed in core time. The
 *    replayed counters must equal the engine's;
 *  - every stored trace or shard the engine loaded: the same get (and
 *    decodeTrace) on identical payloads held in a side store, as many
 *    times as the engine's own `store/trace_hits` and `store/hits`
 *    counters say it loaded them.
 *
 * The engine's own store is only read, so its counters and files stay
 * exactly what the engine made them.
 *
 * bench.unattributed_ms is the answer's wall time minus its stages.
 * Where the engine spans a stage itself (sweep/record, sweep/replay,
 * search/<strategy>) the span of the same answer counts; only what the
 * engine leaves unspanned is taken from the re-answer.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/query_engine.hh"
#include "obs/metrics.hh"
#include "requests.hh"
#include "store/store.hh"

namespace perfbench
{

/** Canonical text of everything @p request's measurement depends on
 * (OS, model seed, references, workloads, space); the store reuses
 * one measurement across budgets, limits, strategies and top-K. */
[[nodiscard]] std::string
measurementText(const oma::api::AllocationRequest &request);

/** One per-layer metric as printed: value plus unit. */
struct LayerMetric
{
    double value = 0.0;
    std::string unit;
};

class LayerTracer
{
  public:
    /** @p side_dir holds the benchmark's payload copies;
     * @p engine_store_dir is the engine's store (read only). */
    LayerTracer(const std::string &side_dir,
                const std::string &engine_store_dir, unsigned lanes);

    /** Measure @p request_line's measurement into the side store
     * without timing it, so later warm questions over it have
     * payloads to load. */
    void prime(const std::string &request_line);

    /**
     * Re-answer @p batch, which @p engine answered with @p answers in
     * @p answer_ms while filling @p observation. Returns a
     * description of every mismatch (empty when the stages agree).
     */
    std::vector<std::string>
    reanswer(const oma::api::QueryEngine &engine, const Batch &batch,
             const std::vector<std::string> &answers,
             const oma::obs::Observation &observation,
             double answer_ms);

    /** Per-layer metrics over every batch re-answered so far.
     * @p untraced_answer_ms is the untraced engine's time for the
     * same batches; @p responses is the engine's response-store
     * traffic over them. */
    [[nodiscard]] std::map<std::string, LayerMetric>
    metrics(double untraced_answer_ms,
            const oma::StoreStatsSnapshot &responses) const;

    /** Engine counters merged over every traced batch. */
    [[nodiscard]] const oma::obs::MetricRegistry &
    engineCounters() const
    {
        return _engine;
    }

  private:
    /** Keys of one measurement's payloads in the side store. */
    struct Payloads
    {
        std::vector<oma::Fingerprint> traces;
        std::vector<oma::Fingerprint> shards;
    };

    /** Record, encode, store and replay every workload of
     * @p request, timing each layer into @p sums when non-null;
     * compares replayed counters against @p engine_results when
     * given. Returns the time spent on what the engine's sweep does
     * outside its record and replay spans (trace encode and put). */
    double measure(const oma::api::AllocationRequest &request,
                   const std::vector<oma::SweepResult> *engine_results,
                   std::map<std::string, double> *sums,
                   std::vector<std::string> &mismatches);

    void add(const std::string &name, double value)
    {
        _sums[name] += value;
    }

    oma::ArtifactStore _side;
    oma::ArtifactStore _engineStore;
    unsigned _lanes;
    std::map<std::string, Payloads> _payloads;
    std::map<std::string, double> _sums;
    oma::obs::MetricRegistry _engine;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
