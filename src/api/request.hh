/**
 * @file
 * Canonical query API value types and their strict JSON codecs.
 *
 * An AllocationRequest is the one client-facing description of an
 * allocation query — the question of the paper ("given this workload
 * mix, OS personality and rbe budget, which {TLB, I-cache, D-cache,
 * …} split minimizes CPI?") plus the search knobs PR 9 added
 * (strategy, annealing seed) and the five-component extension axes.
 * It subsumes the three config surfaces that grew independently
 * (core RunConfig, bench SweepSuiteSpec, per-tool flag soup): those
 * remain as internal/presentation shims, but every query — bench,
 * CLI, daemon — is phrased as one of these and answered by
 * QueryEngine (api/query_engine.hh).
 *
 * Wire format (docs/MODEL.md §14): one JSON object per request, all
 * fields required, unknown fields rejected — a request either parses
 * into exactly this struct or is refused with a positioned error,
 * never half-applied. The content fields feed the Fingerprint that
 * keys responses in the artifact store; the execution field
 * (`threads`) is excluded, so the same question always maps to the
 * same key no matter how it is scheduled. Strategy and its seed ARE
 * content: an annealing answer must never be served for an
 * exhaustive query (tests/support/test_fingerprint.cc pins the
 * canonical text). The measurement fields alone (run, workloads,
 * space) key the averaged CPI tables every ranking of them shares.
 */

#ifndef OMA_API_REQUEST_HH
#define OMA_API_REQUEST_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"
#include "core/search.hh"
#include "core/search_strategy.hh"
#include "support/fingerprint.hh"

namespace oma::api
{

/** Version of the request/response schema pair; fingerprinted into
 * every response key so codec changes age stored answers into
 * misses. */
inline constexpr std::uint32_t apiFormatVersion = 1;

/** Version of the measurement payload (encodeMeasurement() in
 * api/query_engine.hh); fingerprinted into every measurement key. */
inline constexpr std::uint32_t measurementFormatVersion = 1;

inline constexpr std::string_view requestSchema =
    "oma-allocation-request-v1";
inline constexpr std::string_view responseSchema =
    "oma-allocation-response-v1";
inline constexpr std::string_view errorSchema = "oma-error-v1";

/** Search strategy selector (PR 9 strategies). */
enum class Strategy
{
    Exhaustive,
    Annealing
};

/** Stable wire name of @p strategy. */
[[nodiscard]] const char *strategyName(Strategy strategy);

/** Inverse of strategyName(); false on an unknown name. */
[[nodiscard]] bool strategyFromName(std::string_view name,
                                    Strategy &out);

/**
 * One allocation query: the complete question, nothing else.
 * Defaults reproduce the paper's Table 6 configuration (full suite
 * under Mach, Table 5 grid, 250k rbe budget, exhaustive search).
 */
struct AllocationRequest
{
    // ----- content fields (fingerprinted) -----

    /** Workload mix; component CPI tables are suite-averaged over
     * these, as in the paper. */
    std::vector<BenchmarkId> workloads = allBenchmarks();
    OsKind os = OsKind::Mach;
    /** References simulated per workload. */
    std::uint64_t references = 3'000'000;
    /** Workload/OS model seed. */
    std::uint64_t seed = 42;
    /** Component grid (Table 5 plus optional extension axes). */
    ConfigSpace space;
    /** Associativity restriction for ranking (8 = Table 6, 2 =
     * Table 7); the sweep always measures the full grid. */
    std::uint64_t maxCacheWays = 8;
    /** On-chip area budget in rbe. */
    double budgetRbe = 250000.0;
    Strategy strategy = Strategy::Exhaustive;
    /** Annealing knobs; fingerprinted only when strategy is
     * Annealing (they do not affect an exhaustive answer). */
    AnnealingConfig annealing;
    /** Allocations returned, best first (0 = all in budget). */
    std::uint64_t topK = 10;

    // ----- execution fields (never fingerprinted) -----

    /** Lanes for the sweep/search engines; 0 = hardware threads.
     * Any value yields a bitwise-identical answer. */
    unsigned threads = 0;

    /** The engine-internal knob struct for this request's sweeps;
     * @p store_dir names the artifact store root ("" = consult
     * OMA_STORE_DIR). */
    [[nodiscard]] RunConfig
    runConfig(const std::string &store_dir) const
    {
        RunConfig rc;
        rc.references = references;
        rc.seed = seed;
        rc.threads = threads;
        rc.storeDir = store_dir;
        return rc;
    }

    /** The artifact-store key of this request's response: every
     * content field (formats, run, workloads, space, budget,
     * strategy + its knobs, top_k); execution fields are
     * deliberately absent. */
    [[nodiscard]] Fingerprint responseKey() const;

    /** The artifact-store key of this request's averaged CPI tables:
     * the formats, the measurement-payload version, os, seed,
     * references, the ordered workload list (averaging sums in list
     * order), the space and the reference machine. The ranking knobs
     * (budget, max_cache_ways, strategy and its knobs, top_k) and
     * `threads` stay out, so every question over one measurement
     * shares its entry. */
    [[nodiscard]] Fingerprint measurementKey() const;
};

/** The canonical answer to one AllocationRequest. */
struct AllocationResponse
{
    Strategy strategy = Strategy::Exhaustive;
    /** In-budget candidates before top-K truncation. */
    std::uint64_t inBudget = 0;
    std::uint64_t candidates = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t prunedSubspaces = 0;
    /** Config-independent CPI terms of the measured tables. */
    double baseCpi = 1.0;
    double wbCpi = 0.0;
    double otherCpi = 0.0;
    /** Ranked allocations, best first (top-K of the full order). */
    std::vector<Allocation> allocations;
};

/** Encode @p request as one strict-schema JSON object (one line, no
 * embedded newlines — NDJSON-safe). */
[[nodiscard]] std::string
encodeRequest(const AllocationRequest &request);

/** Decode a request; on failure @p error names the offending field
 * or grammar violation and @p out is unspecified. */
[[nodiscard]] bool decodeRequest(std::string_view json,
                                 AllocationRequest &out,
                                 std::string &error);

/** Encode @p response (NDJSON-safe; byte-stable: the same response
 * always encodes to the same bytes). */
[[nodiscard]] std::string
encodeResponse(const AllocationResponse &response);

/** Decode a response (strict, mirror of encodeResponse). */
[[nodiscard]] bool decodeResponse(std::string_view json,
                                  AllocationResponse &out,
                                  std::string &error);

/** Encode a refusal (`oma-error-v1`) carrying @p message. */
[[nodiscard]] std::string encodeError(std::string_view message);

/** Benchmark id by wire name (benchmarkName()); false when
 * unknown. */
[[nodiscard]] bool benchmarkFromName(std::string_view name,
                                     BenchmarkId &out);

/** OS personality by wire name (osKindName()); false when
 * unknown. */
[[nodiscard]] bool osKindFromName(std::string_view name, OsKind &out);

} // namespace oma::api

#endif // OMA_API_REQUEST_HH
