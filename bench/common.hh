/**
 * @file
 * Shared helpers for the experiment benches.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * Trace volume per workload/OS pair is controlled by the
 * OMA_BENCH_REFS environment variable (default 1,500,000 references),
 * so quick smoke runs and long accurate runs use the same binaries.
 */

#ifndef OMA_BENCH_COMMON_HH
#define OMA_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/query_engine.hh"
#include "api/request.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "support/clock.hh"

namespace omabench
{

/** References simulated per workload/OS pair. */
inline std::uint64_t
benchReferences(std::uint64_t fallback = 1500000)
{
    if (const char *env = std::getenv("OMA_BENCH_REFS")) {
        const std::uint64_t v = std::strtoull(env, nullptr, 10);
        if (v > 0)
            return v;
    }
    return fallback;
}

/** Standard run configuration for benches. */
inline oma::RunConfig
benchRun(std::uint64_t fallback = 1500000)
{
    oma::RunConfig rc;
    rc.references = benchReferences(fallback);
    rc.seed = 42;
    return rc;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "==================================================="
                 "=========\n"
              << what << "\n"
              << "(reproduces " << paper_ref << " of Nagle et al., "
              << "ISCA 1994)\n"
              << "==================================================="
                 "=========\n\n";
}

/**
 * One bench run's observability: a RunReport plus the Observation
 * the engines fill, finished and saved on destruction.
 *
 * Every bench binary constructs one of these after its banner and
 * lets it go out of scope at the end of main(); the destructor stamps
 * `time_ms/total`, derives `rate/refs_per_sec` from the references
 * recorded via addReferences(), merges the engine observation and
 * writes `BENCH_<name>.json` (see docs/OBSERVABILITY.md; disable with
 * OMA_RUN_REPORT=0). Progress callbacks are off by default; setting
 * OMA_BENCH_PROGRESS=1 routes throttled progress lines through
 * inform() for benches that arm them.
 */
class BenchReport
{
  public:
    explicit BenchReport(const std::string &name)
        : _report(name), _startNs(oma::Clock::nowNs())
    {
        _report.meta["bench"] = name;
        _report.meta["refs_per_pair"] =
            std::to_string(benchReferences());
    }

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    ~BenchReport() { finish(); }

    /** The sink to pass to QueryEngine's sweep() and rank(). */
    [[nodiscard]] oma::obs::Observation *
    observation()
    {
        return &_obs;
    }

    [[nodiscard]] oma::obs::MetricRegistry &
    metrics()
    {
        return _report.metrics;
    }

    void
    setMeta(const std::string &key, std::string value)
    {
        _report.meta[key] = std::move(value);
    }

    /** Record @p refs simulated references toward the run's rate. */
    void
    addReferences(std::uint64_t refs)
    {
        _refs += refs;
    }

    /**
     * Attach a progress sink expecting @p total ticks, labelled
     * @p what, when OMA_BENCH_PROGRESS=1; otherwise a no-op. Safe to
     * call once per phase — ticks keep accumulating into one sink
     * only if armed once, so prefer one arm per run.
     */
    void
    armProgress(std::uint64_t total, const std::string &what)
    {
        const char *env = std::getenv("OMA_BENCH_PROGRESS");
        if (env == nullptr || std::string(env) != "1")
            return;
        _progress = std::make_unique<oma::obs::Progress>(
            total, oma::obs::Progress::informSink(what));
        _obs.progress = _progress.get();
    }

    /** Stamp totals, save the report, print its path; idempotent. */
    void
    finish()
    {
        if (_finished)
            return;
        _finished = true;
        _report.metrics.merge(_obs.metrics);
        const double elapsed_ms =
            oma::Clock::toMs(oma::Clock::nowNs() - _startNs);
        _report.metrics.set("time_ms/total", elapsed_ms);
        if (_refs > 0) {
            _report.metrics.add("bench/references", _refs);
            if (elapsed_ms > 0.0)
                _report.metrics.set("rate/refs_per_sec",
                                    double(_refs) /
                                        (elapsed_ms / 1000.0));
        }
        const std::string path = _report.save();
        if (!path.empty())
            std::cout << "[run report: " << path << "]\n";
    }

  private:
    oma::obs::RunReport _report;
    oma::obs::Observation _obs;
    std::unique_ptr<oma::obs::Progress> _progress;
    std::int64_t _startNs;
    std::uint64_t _refs = 0;
    bool _finished = false;
};

/**
 * Declarative sweep-suite specification: the figure/table benches
 * share one pipeline (build a ComponentSweep over a grid, run the
 * whole benchmark suite under each OS personality, feed the bench
 * report) and differ only in the grid, the OS list and the workload
 * list declared here.
 */
struct SweepSuiteSpec
{
    /** The swept grid; its extension components (victim caches,
     * write buffers, hierarchies, extra TLB slots) follow the classic
     * axes. */
    oma::api::SweepGrid grid;
    std::vector<oma::OsKind> oses = {oma::OsKind::Ultrix,
                                     oma::OsKind::Mach};
    std::vector<oma::BenchmarkId> workloads = oma::allBenchmarks();
    std::string progressLabel = "grid sweep";
    /** Print one "[sweeping ...]" line per workload (Table 6/7). */
    bool announce = false;
};

/** Per-OS slice of a suite run, in workload order. */
struct SweepSuiteRun
{
    oma::OsKind os;
    std::vector<oma::SweepResult> results;
};

/**
 * Run @p spec: one store-aware sweep per (OS, workload) pair, wired
 * into @p report (progress armed for the full task count, references
 * credited, engine counters collected) when non-null. Results come
 * back grouped by OS, in the order the spec lists them.
 *
 * The spec is presentation only: each pair is phrased as a
 * single-workload api::AllocationRequest and measured by
 * api::QueryEngine over the spec's explicit grid, so the suite
 * benches answer through the same engine as the daemon and the CLI
 * (the sweep store keys depend only on workload/OS/run provenance,
 * so both spellings share trace artifacts).
 */
inline std::vector<SweepSuiteRun>
runSweepSuite(const SweepSuiteSpec &spec, BenchReport *report)
{
    using namespace oma;
    api::QueryEngine engine; // store root from OMA_STORE_DIR
    const api::SweepGrid &grid = spec.grid;
    const std::uint64_t tasks = 1 + grid.icacheGeoms.size() +
        grid.dcacheGeoms.size() + grid.tlbGeoms.size() +
        grid.components.size();
    if (report != nullptr)
        report->armProgress(std::uint64_t(spec.oses.size()) *
                                spec.workloads.size() * tasks,
                            spec.progressLabel);
    std::vector<SweepSuiteRun> runs;
    for (OsKind os : spec.oses) {
        SweepSuiteRun run;
        run.os = os;
        for (BenchmarkId id : spec.workloads) {
            if (spec.announce)
                std::cout << "  [sweeping " << benchmarkName(id)
                          << " under " << osKindName(os) << ": "
                          << grid.icacheGeoms.size() << " I-cache, "
                          << grid.dcacheGeoms.size() << " D-cache, "
                          << grid.tlbGeoms.size()
                          << " TLB configurations]\n";
            api::AllocationRequest request;
            request.workloads = {id};
            request.os = os;
            request.references = benchReferences();
            request.seed = 42;
            auto results = engine.sweep(
                request, report ? report->observation() : nullptr,
                &grid);
            run.results.push_back(std::move(results.front()));
            if (report != nullptr)
                report->addReferences(run.results.back().references);
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

/**
 * Suite-average of a per-configuration quantity: sums
 * @p perConfig(result, i) over every result and divides by the suite
 * size. The view callback names the component and metric, e.g.
 * `[&](const SweepResult &r, std::size_t i) {
 *      return r.icache(i).missRatio(); }`.
 */
template <typename PerConfig>
std::vector<double>
suiteAverage(const std::vector<oma::SweepResult> &results,
             std::size_t configs, PerConfig perConfig)
{
    std::vector<double> avg(configs, 0.0);
    for (const oma::SweepResult &r : results)
        for (std::size_t i = 0; i < configs; ++i)
            avg[i] += perConfig(r, i);
    for (double &v : avg)
        v /= double(results.size());
    return avg;
}

} // namespace omabench

#endif // OMA_BENCH_COMMON_HH
