/**
 * @file
 * Example: trace capture and replay utility.
 *
 *   trace_tools gen <file> <benchmark> <ultrix|mach> <refs> [sampled]
 *       Record a reference stream (with inline page-invalidation
 *       events) and save it as a trace file. Append "sampled" to
 *       apply the paper's 50-window methodology instead (sampled
 *       traces carry no events).
 *   trace_tools info <file>
 *       Summarize a trace: reference mix, modes, address spaces,
 *       format version, event count.
 *   trace_tools sim <file> <i_kb> <d_kb> <line_words> <ways>
 *       Replay a trace through a cache pair and report miss ratios.
 *   trace_tools sweep <file> [threads]
 *       Feed a recorded trace straight into a ComponentSweep over a
 *       small cache/TLB grid and print the per-configuration table.
 *   trace_tools sweeprun <benchmark> <ultrix|mach> <refs> [threads]
 *       Run a live (store-aware) ComponentSweep over the same grid:
 *       with OMA_STORE_DIR set, every replay shard persists, so a
 *       warm rerun skips the record phase (the CI cold-vs-warm job
 *       drives this subcommand).
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "api/query_engine.hh"
#include "cache/cache.hh"
#include "core/sweep.hh"
#include "obs/export.hh"
#include "obs/report.hh"
#include "store/codec.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "trace/sampler.hh"
#include "trace/stats.hh"
#include "workload/system.hh"

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
cmdGen(int argc, char **argv)
{
    fatalIf(argc < 6, "gen needs <file> <benchmark> <os> <refs>");
    const std::string path = argv[2];
    const BenchmarkId id = parseBenchmark(argv[3]);
    const OsKind os = std::string(argv[4]) == "ultrix"
        ? OsKind::Ultrix
        : OsKind::Mach;
    const std::uint64_t refs = std::strtoull(argv[5], nullptr, 10);
    const bool sampled = argc > 6 && std::string(argv[6]) == "sampled";

    System system(benchmarkParams(id), os, 42);
    if (sampled) {
        // Sampling drops references, so event positions would not
        // line up; sampled traces are written without events.
        SamplerParams sp; // the paper's 50-sample methodology
        sp.sampleCount = 50;
        sp.sampleLength = refs / 50;
        sp.meanGap = 3 * sp.sampleLength;
        TraceSampler sampler(system, sp);
        RecordedTrace trace;
        MemRef ref;
        while (sampler.next(ref))
            trace.append(ref);
        store::writeTrace(path, trace);
        std::cout << "Wrote " << trace.size()
                  << " sampled references to " << path << "\n";
        return 0;
    }

    const RecordedTrace trace = system.record(refs);
    store::writeTrace(path, trace);
    std::cout << "Wrote " << trace.size() << " references and "
              << trace.events().size() << " invalidation events to "
              << path << " (" << fmtKBytes(trace.byteSize())
              << " packed)\n";
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    fatalIf(argc < 3, "info needs <file>");
    const RecordedTrace trace = store::readTrace(argv[2]);
    TraceStatistics stats;
    trace.replay([&](const MemRef &ref) { stats.put(ref); });
    std::cout << "Trace: " << argv[2] << " (format v"
              << store::traceFormatVersion << ", "
              << trace.events().size()
              << " invalidation events, other CPI "
              << fmtFixed(trace.otherCpi(), 3) << ")\n";
    stats.print(std::cout);
    return 0;
}

int
cmdSim(int argc, char **argv)
{
    fatalIf(argc < 7,
            "sim needs <file> <i_kb> <d_kb> <line_words> <ways>");
    const RecordedTrace trace = store::readTrace(argv[2]);
    Cache icache(CacheGeometry::fromWords(
        std::strtoull(argv[3], nullptr, 10) * 1024,
        std::strtoull(argv[5], nullptr, 10),
        std::strtoull(argv[6], nullptr, 10)));
    Cache dcache(CacheGeometry::fromWords(
        std::strtoull(argv[4], nullptr, 10) * 1024,
        std::strtoull(argv[5], nullptr, 10),
        std::strtoull(argv[6], nullptr, 10)));
    trace.replayFetchPaddrs([&](std::uint64_t paddr) {
        icache.access(paddr, RefKind::IFetch);
    });
    trace.replayCachedData([&](std::uint64_t paddr, RefKind kind) {
        dcache.access(paddr, kind);
    });
    std::cout << "I-cache " << icache.geometry().describe()
              << ": miss ratio "
              << fmtFixed(icache.stats().missRatio(), 4) << " ("
              << icache.stats().totalMisses() << " misses)\n"
              << "D-cache " << dcache.geometry().describe()
              << ": miss ratio "
              << fmtFixed(dcache.stats().missRatio(), 4) << " ("
              << dcache.stats().totalMisses() << " misses)\n";
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    fatalIf(argc < 3, "sweep needs <file> [threads]");
    const unsigned threads = argc > 3
        ? unsigned(std::strtoul(argv[3], nullptr, 10))
        : 0;
    const RecordedTrace trace = store::readTrace(argv[2]);
    fatalIf(trace.empty(), "empty trace");

    std::vector<CacheGeometry> cache_geoms;
    for (std::uint64_t kb : {2, 4, 8, 16, 32})
        cache_geoms.push_back(
            CacheGeometry::fromWords(kb * 1024, 4, 1));
    std::vector<TlbGeometry> tlb_geoms = {
        TlbGeometry::fullyAssoc(64), TlbGeometry(128, 2),
        TlbGeometry(256, 4)};

    const MachineParams mp = MachineParams::decstation3100();
    const ComponentSweep sweep(cache_geoms, cache_geoms, tlb_geoms);
    obs::Observation observation;
    const SweepResult r = sweep.run(trace, threads, observation);

    obs::RunReport report("trace_tools_sweep");
    report.meta["trace_file"] = argv[2];
    report.meta["threads"] = std::to_string(threads);
    report.metrics.merge(observation.metrics);
    obs::exportSweepResult(report.metrics, r);
    const std::string saved = report.save();
    if (!saved.empty())
        std::cout << "[run report: " << saved << "]\n";

    std::cout << "Swept " << r.references << " recorded references ("
              << r.instructions << " instructions, "
              << trace.events().size() << " events)\n";
    TextTable table({"component", "geometry", "miss ratio", "CPI"});
    for (std::size_t i = 0; i < cache_geoms.size(); ++i) {
        table.addRow({"icache", cache_geoms[i].describe(),
                      fmtFixed(r.icache(i).missRatio(), 4),
                      fmtFixed(r.icache(i).cpi(mp), 3)});
    }
    for (std::size_t i = 0; i < cache_geoms.size(); ++i) {
        table.addRow({"dcache", cache_geoms[i].describe(),
                      fmtFixed(r.dcache(i).missRatio(), 4),
                      fmtFixed(r.dcache(i).cpi(mp), 3)});
    }
    for (std::size_t i = 0; i < tlb_geoms.size(); ++i) {
        table.addRow({"tlb", tlb_geoms[i].describe(), "-",
                      fmtFixed(r.tlb(i).cpi(), 3)});
    }
    table.print(std::cout);
    return 0;
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
        std::cout << "usage: trace_tools gen|info|sim|sweep|sweeprun ...\n";
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "sim")
        return cmdSim(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "sweeprun")
        return cmdSweepRun(argc, argv);
    fatal("unknown command: " + cmd);
}
