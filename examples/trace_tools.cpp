/**
 * @file
 * Example: a store-aware sweep over a small cache/TLB grid.
 *
 *   trace_tools sweeprun <benchmark> <ultrix|mach> <refs> [threads]
 *       Run a live ComponentSweep over the grid through
 *       QueryEngine::sweep: with OMA_STORE_DIR set, every replay shard
 *       persists, so a warm rerun skips the record phase (the CI
 *       cold-vs-warm job drives this subcommand).
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/query_engine.hh"
#include "core/sweep.hh"
#include "obs/export.hh"
#include "obs/report.hh"
#include "support/logging.hh"

using namespace oma;

namespace
{

BenchmarkId
parseBenchmark(const std::string &name)
{
    for (BenchmarkId id : allBenchmarks()) {
        if (name == benchmarkName(id))
            return id;
    }
    fatal("unknown benchmark: " + name);
}

int
cmdSweepRun(int argc, char **argv)
{
    fatalIf(argc < 5,
            "sweeprun needs <benchmark> <ultrix|mach> <refs> [threads]");
    const BenchmarkId id = parseBenchmark(argv[2]);
    const OsKind os = std::string(argv[3]) == "ultrix"
        ? OsKind::Ultrix
        : OsKind::Mach;
    api::AllocationRequest request;
    request.workloads = {id};
    request.os = os;
    request.references = std::strtoull(argv[4], nullptr, 10);
    if (argc > 5)
        request.threads = unsigned(std::strtoul(argv[5], nullptr, 10));

    std::vector<CacheGeometry> cache_geoms;
    for (std::uint64_t kb : {2, 4, 8, 16, 32})
        cache_geoms.push_back(
            CacheGeometry::fromWords(kb * 1024, 4, 1));
    std::vector<TlbGeometry> tlb_geoms = {
        TlbGeometry::fullyAssoc(64), TlbGeometry(128, 2),
        TlbGeometry(256, 4)};

    api::QueryEngine engine; // store root from OMA_STORE_DIR
    api::SweepGrid grid;
    grid.icacheGeoms = cache_geoms;
    grid.dcacheGeoms = cache_geoms;
    grid.tlbGeoms = tlb_geoms;
    obs::Observation observation;
    const SweepResult r =
        engine.sweep(request, &observation, &grid).front();

    obs::RunReport report("trace_tools_sweeprun");
    report.meta["benchmark"] = benchmarkName(id);
    report.meta["os"] = osKindName(os);
    report.meta["threads"] = std::to_string(request.threads);
    report.metrics.merge(observation.metrics);
    obs::exportSweepResult(report.metrics, r);
    const std::string saved = report.save();
    if (!saved.empty())
        std::cout << "[run report: " << saved << "]\n";

    std::cout << "Swept " << r.references << " references ("
              << r.instructions << " instructions); records="
              << observation.metrics.counter("sweep/records")
              << " trace_skips="
              << observation.metrics.counter("sweep/trace_skips")
              << " store_hits="
              << observation.metrics.counter("store/hits") << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cout << "usage: trace_tools sweeprun <benchmark> "
                     "<ultrix|mach> <refs> [threads]\n";
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "sweeprun")
        return cmdSweepRun(argc, argv);
    fatal("unknown command: " + cmd);
}
