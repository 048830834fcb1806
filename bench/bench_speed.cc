/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates:
 * cache access, TLB/MMU translation, the one-pass Cheetah cache
 * engine, the synthetic trace generator, and a full machine step. The
 * paper's methodology contrast — kernel-based simulation at millions
 * of references per second vs trace-driven at tens of thousands — is
 * mirrored by the one-pass cache sweep (BM_CachePass) next to the
 * per-configuration replays here.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include <unistd.h>

#include "bench/common.hh"
#include "cache/cheetah.hh"
#include "cache/replay.hh"
#include "core/component.hh"
#include "core/search.hh"
#include "machine/machine.hh"
#include "store/codec.hh"
#include "workload/system.hh"

using namespace oma;

namespace
{

/** The run's report, so benchmarks can land counters in the JSON. */
omabench::BenchReport *g_report = nullptr;

std::vector<MemRef>
sampleTrace(std::uint64_t n)
{
    static std::vector<MemRef> trace;
    if (trace.size() < n) {
        System system(benchmarkParams(BenchmarkId::Mpeg),
                      OsKind::Mach, 42);
        trace.resize(n);
        for (auto &ref : trace)
            system.next(ref);
    }
    return {trace.begin(), trace.begin() + n};
}

void
BM_CacheAccess(benchmark::State &state)
{
    const auto trace = sampleTrace(1 << 18);
    Cache cache(CacheGeometry::fromWords(std::uint64_t(state.range(0)), 4,
                                         std::uint64_t(state.range(1))));
    std::size_t i = 0;
    for (auto _ : state) {
        const MemRef &ref = trace[i++ & (trace.size() - 1)];
        benchmark::DoNotOptimize(cache.access(ref.paddr, ref.kind));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)
    ->Args({8 * 1024, 1})
    ->Args({8 * 1024, 8})
    ->Args({32 * 1024, 2});

void
BM_MmuTranslate(benchmark::State &state)
{
    const auto trace = sampleTrace(1 << 18);
    TlbParams p;
    p.geom = TlbGeometry::fullyAssoc(64);
    Mmu mmu(p, TlbPenalties());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mmu.translate(trace[i++ & (trace.size() - 1)]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmuTranslate);

void
BM_TraceGeneration(benchmark::State &state)
{
    System system(benchmarkParams(BenchmarkId::Mpeg),
                  state.range(0) ? OsKind::Mach : OsKind::Ultrix, 42);
    MemRef ref;
    for (auto _ : state) {
        system.next(ref);
        benchmark::DoNotOptimize(ref);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration)->Arg(0)->Arg(1);

/**
 * The headline win: one ComponentSweep over a Table 5 grid subset,
 * serial (threads=1) vs parallel. Registered with Arg(1) first so
 * the parallel runs can report their measured speedup against the
 * serial wall clock in the JSON ("speedup_vs_serial" counter).
 */
void
BM_SweepTable5Grid(benchmark::State &state)
{
    static double serial_seconds = 0.0;
    const unsigned threads = unsigned(state.range(0));

    ConfigSpace space;
    // Trimmed grid (2-way max, no 16/32-word lines) so a full
    // iteration stays in benchmark-friendly territory; the sharding
    // is identical to the full Table 5 sweep.
    space.lineWords = {1, 4, 8};
    space.cacheWays = {1, 2};
    api::QueryEngine engine;
    api::SweepGrid grid;
    grid.icacheGeoms = space.cacheGeometries(2);
    grid.dcacheGeoms = space.cacheGeometries(2);
    grid.tlbGeoms = space.tlbGeometries();
    api::AllocationRequest request;
    request.workloads = {BenchmarkId::Mpeg};
    request.os = OsKind::Mach;
    request.references = 100000;
    request.threads = threads;

    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        const SweepResult r =
            engine.sweep(request, nullptr, &grid).front();
        benchmark::DoNotOptimize(r.icache(0).stats.totalMisses());
    }
    const double per_iter = state.iterations()
        ? std::chrono::duration<double>(
              std::chrono::steady_clock::now() - t0)
                .count() /
            double(state.iterations())
        : 0.0;

    if (threads == 1)
        serial_seconds = per_iter;
    state.counters["threads"] = double(threads);
    if (threads > 1 && serial_seconds > 0.0 && per_iter > 0.0)
        state.counters["speedup_vs_serial"] = serial_seconds / per_iter;
    state.SetItemsProcessed(state.iterations() *
                            int64_t(request.references));
}
BENCHMARK(BM_SweepTable5Grid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Scoring/ranking loop over the full Table 5 grid, serial vs
 * parallel sharding by TLB geometry. */
void
BM_RankTable5Grid(benchmark::State &state)
{
    static double serial_seconds = 0.0;
    const unsigned threads = unsigned(state.range(0));

    ConfigSpace space;
    ComponentCpiTables tables;
    tables.tlbGeoms = space.tlbGeometries();
    tables.icacheGeoms = space.cacheGeometries();
    tables.dcacheGeoms = space.cacheGeometries();
    tables.tlbCpi.resize(tables.tlbGeoms.size());
    for (std::size_t i = 0; i < tables.tlbCpi.size(); ++i)
        tables.tlbCpi[i] = 0.01 * double(i % 5);
    tables.icacheCpi.resize(tables.icacheGeoms.size());
    for (std::size_t i = 0; i < tables.icacheCpi.size(); ++i)
        tables.icacheCpi[i] = 0.02 * double(i % 7);
    tables.dcacheCpi.resize(tables.dcacheGeoms.size());
    for (std::size_t i = 0; i < tables.dcacheCpi.size(); ++i)
        tables.dcacheCpi[i] = 0.015 * double(i % 6);

    api::QueryEngine engine;
    api::AllocationRequest request;
    request.budgetRbe = 250000.0;
    request.maxCacheWays = 8;
    request.topK = 0;
    request.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        const auto response = engine.rank(request, tables);
        benchmark::DoNotOptimize(response.allocations.data());
    }
    const double per_iter = state.iterations()
        ? std::chrono::duration<double>(
              std::chrono::steady_clock::now() - t0)
                .count() /
            double(state.iterations())
        : 0.0;
    if (threads == 1)
        serial_seconds = per_iter;
    state.counters["threads"] = double(threads);
    if (threads > 1 && serial_seconds > 0.0 && per_iter > 0.0)
        state.counters["speedup_vs_serial"] = serial_seconds / per_iter;
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankTable5Grid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Recording a stream into the packed RecordedTrace, with counters
 * tracking its footprint against the retired three-vector scheme
 * (a MemRef vector plus separate fetch-paddr and filtered-data
 * vectors) so the sweep-memory reduction stays in the perf
 * trajectory: bytes_per_ref vs legacy_bytes_per_ref and their ratio.
 */
void
BM_RecordTrace(benchmark::State &state)
{
    const std::uint64_t refs = 1 << 18;
    RecordedTrace trace;
    for (auto _ : state) {
        System system(benchmarkParams(BenchmarkId::Mpeg),
                      OsKind::Mach, 42);
        trace = system.record(refs);
        benchmark::DoNotOptimize(trace.byteSize());
    }

    std::uint64_t fetches = 0, data = 0;
    trace.replayFetchPaddrs([&](std::uint64_t) { ++fetches; });
    trace.replayCachedData([&](std::uint64_t, RefKind) { ++data; });
    const double n = double(std::max<std::uint64_t>(1, trace.size()));
    const double packed = double(trace.byteSize());
    const double legacy = n * double(sizeof(MemRef)) +
        double(fetches) * double(sizeof(std::uint64_t)) +
        double(data) * 16.0 /* paddr + kind, padded */;
    state.counters["bytes_per_ref"] = packed / n;
    state.counters["legacy_bytes_per_ref"] = legacy / n;
    state.counters["footprint_reduction"] = legacy / packed;
    state.counters["events"] = double(trace.events().size());
    state.SetItemsProcessed(state.iterations() * int64_t(refs));
}
BENCHMARK(BM_RecordTrace)->Unit(benchmark::kMillisecond);

/** One shared recording for the replay-kernel comparison. */
const RecordedTrace &
replayKernelTrace()
{
    static RecordedTrace trace;
    if (trace.empty()) {
        System system(benchmarkParams(BenchmarkId::Mpeg),
                      OsKind::Mach, 42);
        trace = system.record(1 << 18);
    }
    return trace;
}

/** Wall seconds one call of @p fn takes. */
template <typename Fn>
double
secondsOf(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The slots BM_ReplayKernel replays: one I-cache, one D-cache and
 * one MMU. */
struct ReplayKernelSlots
{
    CacheGeometry cache = CacheGeometry::fromWords(8 * 1024, 4, 2);
    TlbParams tlb;
    MachineParams machine = MachineParams::decstation3100();

    ReplayKernelSlots() { tlb.geom = TlbGeometry::fullyAssoc(64); }

    /** Each raw simulator driven one reference at a time through
     * RecordedTrace's per-reference views. */
    void
    replayScalar(const RecordedTrace &trace) const
    {
        Cache icache(cache), dcache(cache);
        Mmu mmu(tlb, machine.tlbPenalties);
        trace.replayFetchPaddrs([&](std::uint64_t paddr) {
            icache.access(paddr, RefKind::IFetch);
        });
        trace.replayCachedData([&](std::uint64_t paddr, RefKind kind) {
            dcache.access(paddr, kind);
        });
        trace.replay([&](const MemRef &ref) { mmu.translate(ref); },
                     [&](const TraceEvent &e) {
                         mmu.invalidatePage(e.vpn, e.asid, e.global);
                     });
        benchmark::DoNotOptimize(icache.stats().totalMisses() +
                                 dcache.stats().totalMisses() +
                                 mmu.stats().totalMisses());
    }

    /** The same three slots through the sweep's per-slot path. */
    void
    replayBatched(const RecordedTrace &trace) const
    {
        for (const ComponentSlot &slot :
             {ComponentSlot::icache(cache), ComponentSlot::dcache(cache),
              ComponentSlot::tlb(tlb)}) {
            const std::unique_ptr<ComponentReplayer> component =
                makeComponent(slot, machine);
            replayComponent(trace, *component);
            benchmark::DoNotOptimize(component->counters());
        }
    }
};

/** Interleaved scalar/batched rounds behind the speedup gauge. */
constexpr int replayKernelRounds = 9;

/**
 * The chunked-replay comparison: one I-cache (fetches), one D-cache
 * (data) and one MMU, driven per-reference through the scalar views
 * (Arg(0)) vs through makeComponent + replayComponent (Arg(1)), the
 * path the sweep runs for every slot outside the one-pass engine
 * (BM_CachePass), over the same recording. After its timed loop the
 * batched run times replayKernelRounds more rounds of both arms,
 * alternating which runs first, and reports the median of the
 * per-round scalar/batched ratios as `speedup_vs_scalar`: arms timed
 * back to back share the machine's load, so their ratio is steadier
 * than one of two runs taken seconds apart. The run report gains the
 * `replay/speedup_vs_scalar` gauge the CI replay-equivalence job gates
 * on, plus the v3 encoded footprint (`trace/bytes_per_ref`,
 * `trace/encoded_bytes`).
 */
void
BM_ReplayKernel(benchmark::State &state)
{
    const RecordedTrace &trace = replayKernelTrace();
    const bool batched = state.range(0) != 0;
    const ReplayKernelSlots slots;

    for (auto _ : state) {
        if (batched)
            slots.replayBatched(trace);
        else
            slots.replayScalar(trace);
    }

    state.counters["batched"] = batched ? 1.0 : 0.0;
    if (batched) {
        const auto scalar_arm = [&] { slots.replayScalar(trace); };
        const auto batched_arm = [&] { slots.replayBatched(trace); };
        std::vector<double> ratios;
        for (int round = 0; round < replayKernelRounds; ++round) {
            double scalar_s = 0.0, batched_s = 0.0;
            if (round % 2 == 0) {
                scalar_s = secondsOf(scalar_arm);
                batched_s = secondsOf(batched_arm);
            } else {
                batched_s = secondsOf(batched_arm);
                scalar_s = secondsOf(scalar_arm);
            }
            ratios.push_back(scalar_s / batched_s);
        }
        std::nth_element(ratios.begin(),
                         ratios.begin() + replayKernelRounds / 2,
                         ratios.end());
        const double speedup = ratios[replayKernelRounds / 2];
        state.counters["speedup_vs_scalar"] = speedup;
        if (g_report != nullptr) {
            g_report->metrics().set("replay/speedup_vs_scalar",
                                    speedup);
            const std::string encoded = store::encodeTrace(trace);
            g_report->metrics().add("trace/encoded_bytes",
                                    encoded.size());
            g_report->metrics().set("trace/bytes_per_ref",
                                    double(encoded.size()) /
                                        double(trace.size()));
        }
    }
    // Three replay legs consume the full stream each iteration.
    state.SetItemsProcessed(state.iterations() *
                            int64_t(3 * trace.size()));
}
BENCHMARK(BM_ReplayKernel)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The sweep's cache engine against the per-slot replay it replaced:
 * one line size's Table 5 geometries (5 capacities x 4
 * associativities) on both cache streams of the shared recording.
 * Arg(0) replays each geometry as its own I- or D-cache slot
 * (makeComponent + replayComponent, the per-slot path), stream by
 * stream;
 * Arg(1) runs one Cheetah pass per stream and derives every
 * geometry's counters from it. Arg(0) is registered first so Arg(1)
 * can report its measured speedup as the `replay/one_pass_speedup`
 * gauge the CI replay-equivalence job gates on.
 */
void
BM_CachePass(benchmark::State &state)
{
    static double per_slot_seconds = 0.0;
    const RecordedTrace &trace = replayKernelTrace();
    const bool one_pass = state.range(0) != 0;

    const MachineParams machine = MachineParams::decstation3100();
    std::vector<CacheGeometry> geoms;
    for (const CacheGeometry &geom : ConfigSpace().cacheGeometries())
        if (geom.lineWords() == 4)
            geoms.push_back(geom);

    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        std::uint64_t misses = 0;
        for (const CacheStream stream :
             {CacheStream::Fetch, CacheStream::Data}) {
            if (one_pass) {
                Cheetah pass(geoms);
                replayCacheStream(trace, stream, pass);
                for (const CacheGeometry &geom : geoms)
                    misses += pass.stats(geom).totalMisses();
                continue;
            }
            for (const CacheGeometry &geom : geoms) {
                const std::unique_ptr<ComponentReplayer> component =
                    makeComponent(stream == CacheStream::Fetch
                                      ? ComponentSlot::icache(geom)
                                      : ComponentSlot::dcache(geom),
                                  machine);
                replayComponent(trace, *component);
                misses += std::get<CacheStats>(component->counters())
                              .totalMisses();
            }
        }
        benchmark::DoNotOptimize(misses);
    }
    const double per_iter = state.iterations()
        ? std::chrono::duration<double>(
              std::chrono::steady_clock::now() - t0)
                .count() /
            double(state.iterations())
        : 0.0;

    state.counters["one_pass"] = one_pass ? 1.0 : 0.0;
    state.counters["geometries"] = double(geoms.size());
    if (!one_pass) {
        per_slot_seconds = per_iter;
    } else if (per_slot_seconds > 0.0 && per_iter > 0.0) {
        const double speedup = per_slot_seconds / per_iter;
        state.counters["one_pass_speedup"] = speedup;
        if (g_report != nullptr)
            g_report->metrics().set("replay/one_pass_speedup", speedup);
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(2 * trace.size()));
}
BENCHMARK(BM_CachePass)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Replaying one shared recording through a Table 5 grid subset —
 * the phase-2 half of ComponentSweep::run, as driven by a v2 trace
 * file. The bytes_per_ref counter is the recording actually being
 * replayed, so ≥2x reduction versus legacy_bytes_per_ref above is
 * checkable from one JSON report.
 */
void
BM_ReplaySweep(benchmark::State &state)
{
    static RecordedTrace trace;
    if (trace.empty()) {
        System system(benchmarkParams(BenchmarkId::Mpeg),
                      OsKind::Mach, 42);
        trace = system.record(100000);
    }
    const unsigned threads = unsigned(state.range(0));

    ConfigSpace space;
    space.lineWords = {1, 4, 8};
    space.cacheWays = {1, 2};
    ComponentSweep sweep(space.cacheGeometries(2),
                         space.cacheGeometries(2),
                         space.tlbGeometries());
    for (auto _ : state) {
        const SweepResult r = sweep.run(trace, threads);
        benchmark::DoNotOptimize(r.icache(0).stats.totalMisses());
    }
    state.counters["threads"] = double(threads);
    state.counters["bytes_per_ref"] = double(trace.byteSize()) /
        double(std::max<std::uint64_t>(1, trace.size()));
    // The stored (v3 delta/varint) footprint of the same recording.
    state.counters["encoded_bytes_per_ref"] =
        double(store::encodeTrace(trace).size()) /
        double(std::max<std::uint64_t>(1, trace.size()));
    state.SetItemsProcessed(state.iterations() *
                            int64_t(trace.size()));
}
BENCHMARK(BM_ReplaySweep)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Warm artifact-store sweeps: one cold run primes a throwaway store
 * directory outside the timed region, then every timed iteration
 * loads every shard from the store and never touches the trace — no
 * record, no replay. The warm run's observation counters are copied
 * into BENCH_speed.json under `store_warm/` so the claim is
 * checkable from the report: `store_warm/sweep/records` and
 * `store_warm/replay/batched_refs` must be 0 while
 * `store_warm/sweep/trace_skips` counts one skip per iteration.
 */
void
BM_SweepStoreWarm(benchmark::State &state)
{
    namespace fs = std::filesystem;
    const unsigned threads = unsigned(state.range(0));
    const std::string dir =
        (fs::temp_directory_path() /
         ("oma_bench_store." + std::to_string(::getpid()) + "." +
          std::to_string(threads)))
            .string();

    ConfigSpace space;
    space.lineWords = {1, 4, 8};
    space.cacheWays = {1, 2};
    api::QueryEngineConfig config;
    config.storeDir = dir;
    api::QueryEngine engine(config);
    api::SweepGrid grid;
    grid.icacheGeoms = space.cacheGeometries(2);
    grid.dcacheGeoms = space.cacheGeometries(2);
    grid.tlbGeoms = space.tlbGeometries();
    api::AllocationRequest request;
    request.workloads = {BenchmarkId::Mpeg};
    request.os = OsKind::Mach;
    request.references = 100000;
    request.threads = threads;

    // Cold prime: records live and fills the store.
    (void)engine.sweep(request, nullptr, &grid);

    obs::Observation warm;
    for (auto _ : state) {
        const SweepResult r =
            engine.sweep(request, &warm, &grid).front();
        benchmark::DoNotOptimize(r.icache(0).stats.totalMisses());
    }

    const double iters =
        double(std::max<std::int64_t>(1, state.iterations()));
    state.counters["threads"] = double(threads);
    state.counters["records"] =
        double(warm.metrics.counter("sweep/records"));
    state.counters["trace_skips_per_iter"] =
        double(warm.metrics.counter("sweep/trace_skips")) / iters;
    if (g_report != nullptr) {
        for (const char *name :
             {"sweep/records", "sweep/trace_skips", "replay/batched_refs",
              "store/hits", "store/misses", "store/writes",
              "store/quarantined"}) {
            g_report->metrics().add(std::string("store_warm/") + name,
                                    warm.metrics.counter(name));
        }
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
    state.SetItemsProcessed(state.iterations() *
                            int64_t(request.references));
}
BENCHMARK(BM_SweepStoreWarm)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_FullMachineStep(benchmark::State &state)
{
    System system(benchmarkParams(BenchmarkId::Mpeg), OsKind::Mach,
                  42);
    Machine machine(MachineParams::decstation3100());
    MemRef ref;
    for (auto _ : state) {
        system.next(ref);
        machine.observe(ref);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullMachineStep);

} // namespace

// Expanded BENCHMARK_MAIN() so the run also emits a BENCH_speed.json
// report alongside google-benchmark's own console/JSON output.
int
main(int argc, char **argv)
{
    omabench::BenchReport report("speed");
    g_report = &report;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
    report.metrics().add("speed/benchmarks_run", ran);
    benchmark::Shutdown();
    return 0;
}
