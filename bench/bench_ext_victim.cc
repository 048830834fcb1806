/**
 * @file
 * Extension: victim caches vs set associativity under access-time
 * pressure. Table 7 restricts caches to 1-/2-way because 4-/8-way
 * arrays may not fit the cycle time; a Jouppi victim buffer is the
 * classic third option — direct-mapped access time, a few CAM
 * entries of area, and much of 2-way's conflict-miss coverage. This
 * bench compares, at the I-cache sizes Table 7 cares about:
 * direct-mapped, direct-mapped + {2,4,8}-entry victim buffer, and
 * 2-way set-associative, on suite-average Mach instruction streams.
 *
 * All nine organizations per size ride one heterogeneous
 * ComponentSweep (core/component.hh): the 2-way caches as classic
 * I-cache slots, the victim organizations as victim slots, replayed
 * from a single recording per workload.
 */

#include <iostream>
#include <iterator>

#include "area/mqf.hh"
#include "bench/common.hh"
#include "support/table.hh"

using namespace oma;

namespace
{

constexpr std::uint64_t kbSizes[] = {4, 8, 16, 32};
constexpr std::uint64_t victimDepths[] = {0, 2, 4, 8};
constexpr std::uint64_t lineBytes = 16; // 4-word lines

std::string
ratio(std::uint64_t misses, std::uint64_t fetches)
{
    return fmtFixed(double(misses) / double(fetches), 4);
}

} // namespace

int
main()
{
    omabench::banner("Extension: victim buffers vs 2-way set "
                     "associativity for the I-cache (Mach suite "
                     "average, 4-word lines)",
                     "Table 7's associativity restriction");

    omabench::BenchReport report("ext_victim");
    AreaModel area;

    omabench::SweepSuiteSpec spec;
    for (std::uint64_t kb : kbSizes) {
        spec.grid.icacheGeoms.push_back(
            CacheGeometry(kb * 1024, lineBytes, 2));
        for (std::uint64_t entries : victimDepths) {
            VictimParams p;
            p.l1 = CacheGeometry(kb * 1024, lineBytes, 1);
            p.entries = entries;
            spec.grid.components.push_back(ComponentSlot::victim(p));
        }
    }
    spec.oses = {OsKind::Mach};
    spec.progressLabel = "victim sweep";
    const auto runs = omabench::runSweepSuite(spec, &report);
    const std::vector<SweepResult> &results = runs.front().results;

    constexpr std::size_t depths = std::size(victimDepths);
    TextTable table({"I-cache", "DM", "DM + V2", "DM + V4", "DM + V8",
                     "2-way"});
    for (std::size_t k = 0; k < std::size(kbSizes); ++k) {
        // Suite-summed fetch-stream counters (every organization sees
        // the identical fetch stream, so one denominator serves all).
        std::uint64_t fetches = 0, misses_2w = 0;
        std::uint64_t misses_v[depths] = {};
        for (const SweepResult &r : results) {
            fetches += r.victim(k * depths).stats.accesses;
            misses_2w += r.icache(k).stats.totalMisses();
            for (std::size_t v = 0; v < depths; ++v)
                misses_v[v] += r.victim(k * depths + v).stats.misses;
        }
        const std::uint64_t kb = kbSizes[k];
        report.metrics().add(
            "victim/" + std::to_string(kb) + "kb/fetches", fetches);
        report.metrics().add(
            "victim/" + std::to_string(kb) + "kb/misses_dm",
            misses_v[0]);
        report.metrics().add(
            "victim/" + std::to_string(kb) + "kb/misses_v8",
            misses_v[depths - 1]);
        report.metrics().add(
            "victim/" + std::to_string(kb) + "kb/misses_2w",
            misses_2w);
        table.addRow({fmtKBytes(kb * 1024),
                      ratio(misses_v[0], fetches),
                      ratio(misses_v[1], fetches),
                      ratio(misses_v[2], fetches),
                      ratio(misses_v[3], fetches),
                      ratio(misses_2w, fetches)});
    }
    table.print(std::cout);

    const double delta_2w =
        area.cacheArea(CacheGeometry(16 * 1024, 16, 2)) -
        area.cacheArea(CacheGeometry(16 * 1024, 16, 1));
    std::cout << "\nArea context (MQF): an 8-entry victim buffer of "
                 "16-B lines costs ~"
              << fmtGrouped(std::uint64_t(
                     area.victimBufferArea(8, lineBytes)))
              << " rbe, while taking a 16-KB cache from 1-way to "
                 "2-way at constant capacity is area-neutral in the "
                 "MQF model ("
              << fmtFixed(delta_2w, 0)
              << " rbe: halving the set count pays for the second "
                 "way's tags) — associativity's real price is access "
                 "time, which the victim buffer avoids (see "
                 "bench_ext_accesstime).\n"
                 "Honest finding: on these streams the buffer "
                 "recovers almost nothing. A multiple-API OS's "
                 "conflicts are broad code overlays — whole RPC "
                 "paths, server bodies and application loops "
                 "colliding across many sets at once — not the "
                 "pointwise, bursty conflicts Jouppi's buffer "
                 "absorbs (the unit tests demonstrate it does absorb "
                 "those). Associativity or capacity, as the paper's "
                 "Tables 6/7 allocate, is what actually helps; a "
                 "victim buffer is not a shortcut around Table 7's "
                 "access-time dilemma.\n";
    return 0;
}
