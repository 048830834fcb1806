/**
 * @file
 * Example: export the paper's figure series as CSV for plotting.
 *
 * Writes one CSV per figure into an output directory:
 *   fig7_tlb_service.csv   (size, class, seconds)
 *   fig8_tlb_relative.csv  (entries, ways, relative service time)
 *   fig9_icache.csv        (os, size_kb, line_words, miss_ratio, cpi)
 *   fig10_icache_assoc.csv (os, size_kb, ways, miss_ratio, cpi)
 *   areas.csv              (structure, parameter, rbe)
 *
 * Usage: export_figures [out_dir] [refs_per_workload]
 */

#include <filesystem>
#include <fstream>
#include <iostream>

#include "api/query_engine.hh"
#include "area/mqf.hh"
#include "core/sweep.hh"
#include "support/logging.hh"

using namespace oma;

namespace
{

std::ofstream
open(const std::filesystem::path &dir, const std::string &name)
{
    std::ofstream out(dir / name);
    fatalIf(!out, "cannot create " + (dir / name).string());
    return out;
}

void
exportAreas(const std::filesystem::path &dir)
{
    AreaModel model;
    std::ofstream out = open(dir, "areas.csv");
    out << "structure,parameter,rbe\n";
    for (std::uint64_t entries : {16, 32, 64, 128, 256, 512}) {
        for (std::uint64_t ways : {1, 2, 4, 8}) {
            out << "tlb_" << ways << "way," << entries << ","
                << model.tlbArea(TlbGeometry(entries, ways)) << "\n";
        }
        out << "tlb_full," << entries << ","
            << model.tlbArea(TlbGeometry::fullyAssoc(entries)) << "\n";
    }
    for (std::uint64_t kb : {2, 4, 8, 16, 32, 64}) {
        for (std::uint64_t words : {1, 2, 4, 8}) {
            out << "cache_" << words << "w," << kb << ","
                << model.cacheArea(
                       CacheGeometry::fromWords(kb * 1024, words, 1))
                << "\n";
        }
    }
}

/** One sweep of @p grid under Mach per workload of @p workloads. */
std::vector<SweepResult>
sweepMach(const std::vector<BenchmarkId> &workloads,
          const api::SweepGrid &grid, std::uint64_t refs)
{
    api::AllocationRequest request;
    request.workloads = workloads;
    request.os = OsKind::Mach;
    request.references = refs;
    return api::QueryEngine().sweep(request, nullptr, &grid);
}

void
exportFig7(const std::filesystem::path &dir, std::uint64_t refs)
{
    const std::vector<std::uint64_t> sizes = {32, 64, 128, 256, 512};
    const TlbPenalties penalties =
        MachineParams::decstation3100().tlbPenalties;
    std::vector<std::array<double, numMissClasses>> seconds(
        sizes.size());
    for (auto &row : seconds)
        row.fill(0.0);

    api::SweepGrid grid;
    for (std::uint64_t entries : sizes)
        grid.tlbGeoms.push_back(TlbGeometry::fullyAssoc(entries));
    const std::vector<BenchmarkId> workloads = allBenchmarks();
    const std::vector<SweepResult> results =
        sweepMach(workloads, grid, refs);
    for (std::size_t w = 0; w < results.size(); ++w) {
        const SweepResult &r = results[w];
        const double scale =
            benchmarkParams(workloads[w]).nominalInstructions /
            double(r.instructions);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            for (unsigned c = 0; c < numMissClasses; ++c) {
                seconds[s][c] += double(r.tlb(s).stats.cycles[c]) *
                    scale / penalties.clockHz;
            }
        }
    }

    std::ofstream out = open(dir, "fig7_tlb_service.csv");
    out << "entries,class,seconds\n";
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        for (unsigned c = 0; c < numMissClasses; ++c) {
            out << sizes[s] << ","
                << missClassName(static_cast<MissClass>(c)) << ","
                << seconds[s][c] << "\n";
        }
    }
}

void
exportIcacheGrids(const std::filesystem::path &dir, std::uint64_t refs)
{
    const std::vector<std::uint64_t> kb_sizes = {2, 4, 8, 16, 32};
    const std::vector<std::uint64_t> lines = {1, 2, 4, 8, 16, 32};
    const std::vector<std::uint64_t> ways = {1, 2, 4, 8};
    const MachineParams mp = MachineParams::decstation3100();

    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : kb_sizes)
        for (std::uint64_t words : lines)
            geoms.push_back(
                CacheGeometry::fromWords(kb * 1024, words, 1));
    const std::size_t dm_count = geoms.size();
    for (std::uint64_t kb : kb_sizes)
        for (std::uint64_t w : ways)
            geoms.push_back(CacheGeometry::fromWords(kb * 1024, 4, w));

    api::QueryEngine engine;
    api::SweepGrid grid;
    grid.icacheGeoms = geoms;
    grid.dcacheGeoms = {CacheGeometry::fromWords(8 * 1024, 4, 1)};
    grid.tlbGeoms = {TlbGeometry::fullyAssoc(64)};

    std::ofstream f9 = open(dir, "fig9_icache.csv");
    std::ofstream f10 = open(dir, "fig10_icache_assoc.csv");
    f9 << "os,size_kb,line_words,miss_ratio,cpi\n";
    f10 << "os,size_kb,ways,miss_ratio,cpi\n";

    for (OsKind os : {OsKind::Ultrix, OsKind::Mach}) {
        std::vector<double> miss(geoms.size(), 0.0);
        std::vector<double> cpi(geoms.size(), 0.0);
        for (BenchmarkId id : allBenchmarks()) {
            api::AllocationRequest request;
            request.workloads = {id};
            request.os = os;
            request.references = refs;
            const SweepResult r =
                engine.sweep(request, nullptr, &grid).front();
            for (std::size_t i = 0; i < geoms.size(); ++i) {
                miss[i] += r.icache(i).missRatio() / numBenchmarks;
                cpi[i] += r.icache(i).cpi(mp) / numBenchmarks;
            }
        }
        for (std::size_t i = 0; i < geoms.size(); ++i) {
            const CacheGeometry &g = geoms[i];
            if (i < dm_count) {
                f9 << osKindName(os) << ","
                   << g.capacityBytes / 1024 << "," << g.lineWords()
                   << "," << miss[i] << "," << cpi[i] << "\n";
            } else {
                f10 << osKindName(os) << ","
                    << g.capacityBytes / 1024 << "," << g.assoc << ","
                    << miss[i] << "," << cpi[i] << "\n";
            }
        }
    }
}

void
exportFig8(const std::filesystem::path &dir, std::uint64_t refs)
{
    const std::vector<std::uint64_t> sizes = {64, 128, 256, 512};
    const std::vector<std::uint64_t> ways = {1, 2, 4, 8};
    api::SweepGrid grid;
    grid.tlbGeoms.push_back(TlbGeometry::fullyAssoc(256));
    for (std::uint64_t entries : sizes)
        for (std::uint64_t w : ways)
            grid.tlbGeoms.emplace_back(entries, w);
    const SweepResult r =
        sweepMach({BenchmarkId::VideoPlay}, grid, refs).front();
    const double reference =
        double(r.tlb(0).stats.totalServiceCycles());

    std::ofstream out = open(dir, "fig8_tlb_relative.csv");
    out << "entries,ways,relative\n";
    std::size_t idx = 1;
    for (std::uint64_t entries : sizes) {
        for (std::uint64_t w : ways) {
            out << entries << "," << w << ","
                << double(r.tlb(idx++).stats.totalServiceCycles()) /
                    reference
                << "\n";
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::filesystem::path dir =
        argc > 1 ? argv[1] : "figures_csv";
    const std::uint64_t refs =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 800000;
    std::filesystem::create_directories(dir);

    std::cout << "Exporting area curves...\n";
    exportAreas(dir);
    std::cout << "Exporting Figure 7 (TLB service time)...\n";
    exportFig7(dir, refs);
    std::cout << "Exporting Figure 8 (relative TLB service)...\n";
    exportFig8(dir, refs);
    std::cout << "Exporting Figures 9/10 (I-cache grids)...\n";
    exportIcacheGrids(dir, refs);
    std::cout << "Done: CSVs in " << dir << "\n";
    return 0;
}
