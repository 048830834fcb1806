/**
 * @file
 * QueryEngine: the single sanctioned entry point for allocation
 * queries (docs/MODEL.md §14).
 *
 * Composes the engines the previous PRs built — ComponentSweep
 * (record-then-replay measurement), ExhaustiveStrategy and
 * AnnealingStrategy (ranking) and ArtifactStore (content-addressed
 * reuse) — behind one call: give it an AllocationRequest, get back
 * the canonical AllocationResponse JSON. Every frontend (the oma_serve
 * daemon, the table benches, trace_tools, caltool) phrases its
 * question this way, so there is one code path to trust instead of
 * three ad-hoc ones.
 *
 * Serving discipline: answer() takes one of three paths.
 *
 * 1. *Stored response.* The request's response key (every content
 *    field) keys the encoded response in the artifact store; a hit is
 *    returned without touching a simulator (`serve/warm_hits`, zero
 *    record/replay work — counter-proven in CI).
 *    A request that misses is first checked against the lists the
 *    sweep measures (ConfigSpace::check()); one that fails gets an
 *    `oma-error-v1` answer naming the request fields, never a
 *    sweep, so it cannot take down the rest of a batch.
 * 2. *Stored measurement.* The request's measurement key (run,
 *    ordered workloads, space, reference machine; no ranking knob)
 *    keys the averaged ComponentCpiTables. A hit
 *    (`serve/measurement_hits`) skips the sweep and the averaging:
 *    a new budget, ways limit, strategy or top_k over a measured mix
 *    is one response get, one measurement get, the search, the
 *    encode and the put.
 * 3. *Computed.* The engine sweeps per workload (store-aware, so
 *    even a cold measurement reuses stored shards), averages the
 *    component tables and puts them under the measurement key
 *    (`serve/measured`).
 *
 * Either way the engine then runs the requested strategy, encodes
 * the top-K answer and puts it in the store (`serve/computed`). The
 * measurement's get and put go through the sweep's own store handle
 * and are counted with the shards under `store/`; store() holds
 * responses only.
 *
 * answerBatch() groups a batch's lines by response key before any
 * path runs, so duplicate lines of one batch cost one answer and
 * carry its bytes (`serve/dedup_hits`), then answers each group as
 * answer() does. That is the one place duplicates coalesce: two
 * threads that call answer() with one key at once both compute, and
 * two cold questions over one measurement that run at once both
 * measure it; their puts of the same bytes race harmlessly
 * (store/store.hh).
 *
 * Because responses carry content only — no provenance, no timing —
 * every path returns bitwise-identical bytes, at any thread count
 * (tests/api/test_query_engine.cc, test_serve_once.cc).
 *
 * Admission is one pass in two steps: validate() runs the checks
 * that build no list before the warm get (array lengths, references,
 * top_k, threads, annealing), and ConfigSpace::check() runs every check
 * built on a geometry list (limits, empty axes, the candidate count,
 * each geometry) once, after the warm get misses. answerBatch()
 * refuses requests beyond maxBatch per call (`serve/rejected`) and
 * computes distinct requests on at most maxInflight concurrent
 * lanes; each lane still honours the request's own `threads` knob
 * for its sweeps.
 *
 * Every entry point takes an optional obs::Observation pointer;
 * nullptr means obs::Observation::none(), the calling thread's
 * scratch sink, so the engines below always record.
 */

#ifndef OMA_API_QUERY_ENGINE_HH
#define OMA_API_QUERY_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/request.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "store/store.hh"

namespace oma::api
{

/** Engine-level knobs (per engine, not per request). */
struct QueryEngineConfig
{
    /** Artifact-store root; "" consults OMA_STORE_DIR, and when that
     * is unset too the engine runs storeless (batch grouping still
     * works, warm serving does not). */
    std::string storeDir;
    /** Admission limit: distinct requests computed concurrently by
     * one answerBatch() call. */
    unsigned maxInflight = 4;
    /** Admission limit: requests accepted per batch; the rest are
     * refused with an error answer. */
    std::size_t maxBatch = 64;
};

/**
 * The explicit component grid of one sweep. Normally derived from
 * AllocationRequest::space; legacy suites with hand-built component
 * slots (bench/common.hh) pass their own.
 */
struct SweepGrid
{
    std::vector<CacheGeometry> icacheGeoms;
    std::vector<CacheGeometry> dcacheGeoms;
    std::vector<TlbGeometry> tlbGeoms;
    std::vector<ComponentSlot> components;

    [[nodiscard]] static SweepGrid fromSpace(const ConfigSpace &space);
};

/**
 * The measurement payload of @p tables, stored under
 * AllocationRequest::measurementKey(): the six list lengths (I-cache,
 * D-cache, TLB, victim, write buffer, hierarchy), then every CPI as
 * its raw 64-bit pattern, in that order, then the base, write-buffer
 * and other CPI. Geometries and extension parameters are not stored;
 * the space rebuilds them.
 */
[[nodiscard]] std::string encodeMeasurement(const ComponentCpiTables &tables);

/** Inverse of encodeMeasurement() for tables measured over @p space,
 * whose lists it rebuilds with SweepGrid::fromSpace(); sets
 * @p tables only on success.
 * @retval false on any other payload size, or list lengths that
 * disagree with the space's lists (a miss, which re-measures). */
[[nodiscard]] bool decodeMeasurement(std::string_view payload,
                                     const ConfigSpace &space,
                                     ComponentCpiTables &tables);

/** Allocation-as-a-service: answer AllocationRequests. */
class QueryEngine
{
  public:
    explicit QueryEngine(QueryEngineConfig config = QueryEngineConfig());

    /**
     * Answer one request by one of the three paths (file header).
     * Returns the response JSON, or an `oma-error-v1` payload for an
     * invalid request. The observation (nullptr:
     * Observation::none()) collects the serve counters plus the
     * underlying sweep/search metrics; which one is passed never
     * changes the answer.
     */
    [[nodiscard]] std::string
    answer(const AllocationRequest &request,
           obs::Observation *observation = nullptr) const;

    /**
     * Answer a batch of JSON request lines, one answer per line, in
     * input order. Duplicate requests inside the batch are answered
     * once and fanned out (`serve/dedup_hits`); distinct requests
     * compute on at most maxInflight lanes; lines beyond maxBatch
     * are refused. Per-request metric shards merge into
     * @p observation in input-group order, so the counters are a
     * pure function of the batch, not of the schedule.
     */
    [[nodiscard]] std::vector<std::string>
    answerBatch(const std::vector<std::string> &request_lines,
                obs::Observation *observation = nullptr) const;

    /**
     * Measurement stage only: one store-aware sweep per workload of
     * @p request, in workload order. @p grid overrides the grid
     * derived from request.space (legacy suite shims); the shard
     * keys depend only on workload/OS/run provenance and the slot,
     * so both spellings share stored shards.
     */
    [[nodiscard]] std::vector<SweepResult>
    sweep(const AllocationRequest &request,
          obs::Observation *observation = nullptr,
          const SweepGrid *grid = nullptr) const;

    /**
     * Ranking stage only, for callers that already hold (possibly
     * hand-adjusted) tables: run the request's strategy under its
     * budget/associativity knobs and return the structured top-K
     * response. A computed answer is sweep() +
     * ComponentCpiTables::average() (or the stored measurement) +
     * rank() + codec + store.
     */
    [[nodiscard]] AllocationResponse
    rank(const AllocationRequest &request,
         const ComponentCpiTables &tables,
         obs::Observation *observation = nullptr) const;

    /** Most lanes one request may ask for (`threads`). Each lane is
     * a pool thread, so a larger count would exhaust memory before
     * any work starts. */
    static constexpr unsigned maxRequestThreads = 256;

    /** Most chains one annealing request may ask for; each chain
     * holds its own search state. */
    static constexpr unsigned maxAnnealingChains = 1024;

    /** Most proposals one annealing chain may make: 500x the default
     * of 2,000. Even maxAnnealingChains chains of this many finish in
     * bounded time; 2^32 proposals ran for as long as anyone waited. */
    static constexpr std::uint64_t maxAnnealingIterations = 1000000;

    /** Most references one request may ask for per workload: 20x
     * the largest count the repository runs, and about 1 GB for one
     * packed recording (~10 B/ref). A larger count would record for
     * hours or exhaust memory before any answer. */
    static constexpr std::uint64_t maxReferences = 100000000;

    /** Most values one request array may hold: `workloads` and each
     * of the eight `space` arrays. Checked before any geometry list
     * is built; 8,000 TLB sizes alone once made a 1-GB list. */
    static constexpr std::size_t maxArrayValues = 64;

    /** Most allocations one answer may list (`top_k`, at least 1).
     * The exhaustive search keeps, materializes and encodes that
     * many; a top_k of 0 (every allocation, which rank() still takes
     * from in-process callers) made a 110-MB answer line for Table
     * 6's space. */
    static constexpr std::uint64_t maxTopK = 1000;

    /** The request's checks that build no list (array lengths,
     * non-empty mix, positive references within maxReferences,
     * positive budget and max_cache_ways, top_k within 1..maxTopK,
     * threads and annealing chains and iterations within their
     * limits); false sets @p error. The list-built checks are
     * ConfigSpace::check(). */
    [[nodiscard]] static bool validate(const AllocationRequest &request,
                                       std::string &error);

    /** The engine's store, nullptr when storeless. */
    [[nodiscard]] const ArtifactStore *
    store() const
    {
        return _store.get();
    }

  private:
    /** The request's averaged tables, from the stored measurement or
     * from a sweep whose average is then stored (`serve/measure`). */
    [[nodiscard]] ComponentCpiTables
    measure(const AllocationRequest &request,
            obs::Observation &observation) const;

    /** Answer @p request, whose response key is @p key, by one of the
     * three paths (`serve/answer`). */
    [[nodiscard]] std::string
    serve(const AllocationRequest &request, const Fingerprint &key,
          obs::Observation &observation) const;

    QueryEngineConfig _config;
    std::unique_ptr<ArtifactStore> _store;
};

} // namespace oma::api

#endif // OMA_API_QUERY_ENGINE_HH
