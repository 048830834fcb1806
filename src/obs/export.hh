/**
 * @file
 * Exporters: component statistics -> named registry metrics.
 *
 * Each simulation component keeps its own counters (CacheStats,
 * MmuStats, StallCounters...); these helpers copy them into a
 * MetricRegistry under the naming scheme of docs/OBSERVABILITY.md.
 * A component's counter names come from its record's
 * forEachCounter() list, the list the store codec also walks, so
 * exportCounters() is the one exporter for all five records.
 * Exporting is a read-only snapshot — components never observe the
 * registry — which is what keeps a run's results bitwise independent
 * of the observation it records into.
 *
 * Header-only by design: the obs library proper depends only on
 * support, while these inline adapters may name any component type;
 * the dependency belongs to whoever includes them (engines, benches,
 * tools).
 */

#ifndef OMA_OBS_EXPORT_HH
#define OMA_OBS_EXPORT_HH

#include <iterator>
#include <numeric>
#include <string>
#include <type_traits>

#include "core/experiment.hh"
#include "core/search.hh"
#include "core/sweep.hh"
#include "machine/machine.hh"
#include "obs/metrics.hh"
#include "store/store.hh"
#include "support/threadpool.hh"
#include "tlb/mmu.hh"
#include "trace/recorded.hh"

namespace oma::obs
{

/**
 * A counter record's fields under `<prefix>/<name>`, named by the
 * record's forEachCounter() list (cache/cache.hh), an array as its
 * sum; for the MMU also the derived `refill_cycles`. One template
 * serves CacheStats, MmuStats, VictimStats, WriteBufferStats and
 * HierarchyStats, so a counter added to a list is exported by name.
 */
template <class Stats>
inline void
exportCounters(MetricRegistry &m, const std::string &prefix,
               const Stats &s)
{
    Stats::forEachCounter(
        [&m, &prefix](const char *name, const auto &field) {
            std::uint64_t total = 0;
            if constexpr (std::is_array_v<
                              std::remove_reference_t<decltype(field)>>)
                total = std::accumulate(std::begin(field),
                                        std::end(field), total);
            else
                total = field;
            m.add(prefix + "/" + name, total);
        },
        s);
    if constexpr (std::is_same_v<Stats, MmuStats>)
        m.add(prefix + "/refill_cycles", s.refillCycles());
}

/** Monster-style stall attribution counters under `<prefix>/...`. */
inline void
exportStallCounters(MetricRegistry &m, const std::string &prefix,
                    const StallCounters &s)
{
    m.add(prefix + "/instructions", s.instructions);
    m.add(prefix + "/icache_stall", s.icacheStall);
    m.add(prefix + "/dcache_stall", s.dcacheStall);
    m.add(prefix + "/wb_stall", s.wbStall);
    m.add(prefix + "/tlb_stall", s.tlbStall);
}

/** Write-buffer counters under `<prefix>/...` from raw values (the
 * sweep keeps the reference machine's as plain counters). */
inline void
exportWriteBufferCounters(MetricRegistry &m, const std::string &prefix,
                          std::uint64_t stores,
                          std::uint64_t stall_cycles)
{
    m.add(prefix + "/stores", stores);
    m.add(prefix + "/stall_cycles", stall_cycles);
}

/** Recording shape: reference/event counts and packed size. */
inline void
exportRecordedTrace(MetricRegistry &m, const std::string &prefix,
                    const RecordedTrace &trace)
{
    m.add(prefix + "/references", trace.size());
    m.add(prefix + "/events", trace.events().size());
    m.add(prefix + "/bytes", trace.byteSize());
    if (!trace.empty())
        m.set(prefix + "/bytes_per_ref",
              double(trace.byteSize()) / double(trace.size()));
}

/** Baseline (fixed-machine) run: per-component miss data. */
inline void
exportBaseline(MetricRegistry &m, const std::string &prefix,
               const BaselineResult &r)
{
    m.add(prefix + "/instructions", r.instructions);
    m.add(prefix + "/references", r.references);
    exportCounters(m, prefix + "/tlb", r.mmu);
    m.set(prefix + "/icache_miss_ratio", r.icacheMissRatio);
    m.set(prefix + "/dcache_miss_ratio", r.dcacheMissRatio);
    m.set(prefix + "/cpi", r.cpi.cpi);
}

/**
 * Sweep totals: per-component event sums over every configuration
 * in the sweep, plus per-configuration miss-count histograms (the
 * distribution across the design grid — deterministic, since the
 * samples are counters, not timings). The per-kind event counters
 * themselves are exported by the engine into its Observation at the
 * end of the run; this helper adds only what the result object
 * carries on top, so merging both never double-counts.
 */
inline void
exportSweepResult(MetricRegistry &m, const SweepResult &r)
{
    m.add("sweep/references", r.references);
    m.add("sweep/instructions", r.instructions);
    m.add("sweep/icache_configs", r.icacheCount());
    m.add("sweep/dcache_configs", r.dcacheCount());
    m.add("sweep/tlb_configs", r.tlbCount());
    for (std::size_t i = 0; i < r.icacheCount(); ++i)
        m.observe("icache/misses_per_config",
                  r.icache(i).stats.totalMisses());
    for (std::size_t i = 0; i < r.dcacheCount(); ++i)
        m.observe("dcache/misses_per_config",
                  r.dcache(i).stats.totalMisses());
    for (std::size_t i = 0; i < r.tlbCount(); ++i)
        m.observe("tlb/refill_cycles_per_config",
                  r.tlb(i).stats.refillCycles());
    // Extension axes: only present when the sweep carried them, so
    // classic-space run reports are byte-compatible.
    if (r.victimCount() != 0) {
        m.add("sweep/victim_configs", r.victimCount());
        for (std::size_t i = 0; i < r.victimCount(); ++i)
            m.observe("victim/misses_per_config",
                      r.victim(i).stats.misses);
    }
    if (r.writeBufferCount() != 0) {
        m.add("sweep/wbuffer_configs", r.writeBufferCount());
        for (std::size_t i = 0; i < r.writeBufferCount(); ++i)
            m.observe("wbuffer/stall_cycles_per_config",
                      r.writeBuffer(i).stats.stallCycles);
    }
    if (r.hierarchyCount() != 0) {
        m.add("sweep/l2_configs", r.hierarchyCount());
        for (std::size_t i = 0; i < r.hierarchyCount(); ++i)
            m.observe("l2/stall_cycles_per_config",
                      r.hierarchy(i).stats.stallCycles);
    }
}

/** Ranked-allocation summary (count, best CPI/area). */
inline void
exportRanking(MetricRegistry &m,
              const std::vector<Allocation> &ranked)
{
    m.add("search/ranked", ranked.size());
    if (!ranked.empty()) {
        m.set("search/best_cpi", ranked.front().cpi);
        m.set("search/best_area_rbe", ranked.front().areaRbe);
    }
}

/** Artifact-store traffic counters under `<prefix>/...`. */
inline void
exportArtifactStore(MetricRegistry &m, const std::string &prefix,
                    const ArtifactStore &store)
{
    const StoreStatsSnapshot s = store.stats();
    m.add(prefix + "/hits", s.hits);
    m.add(prefix + "/misses", s.misses);
    m.add(prefix + "/writes", s.writes);
    m.add(prefix + "/quarantined", s.quarantined);
}

/** Pool shape and work volume under `<prefix>/...`. */
inline void
exportThreadPool(MetricRegistry &m, const std::string &prefix,
                 const ThreadPool &pool)
{
    m.add(prefix + "/lanes", pool.threadCount());
    m.add(prefix + "/jobs", pool.stats().jobs);
    m.add(prefix + "/indices", pool.stats().indices);
}

} // namespace oma::obs

#endif // OMA_OBS_EXPORT_HH
