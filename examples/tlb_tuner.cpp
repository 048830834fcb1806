/**
 * @file
 * Example: TLB tuning for one workload — the Section 5.2 analysis as
 * a tool. Sweeps TLB sizes and associativities as the TLB slots of
 * one sweep, prints refill CPI against MQF area, and recommends the
 * cheapest configuration within 5% of the best refill CPI.
 *
 * Usage: tlb_tuner [benchmark] [ultrix|mach] [references]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "api/query_engine.hh"
#include "area/mqf.hh"
#include "support/logging.hh"
#include "support/table.hh"

using namespace oma;

int
main(int argc, char **argv)
{
    BenchmarkId id = BenchmarkId::VideoPlay;
    if (argc > 1) {
        bool found = false;
        for (BenchmarkId b : allBenchmarks()) {
            if (std::string(argv[1]) == benchmarkName(b)) {
                id = b;
                found = true;
            }
        }
        if (!found)
            fatal(std::string("unknown benchmark: ") + argv[1]);
    }
    OsKind os = OsKind::Mach;
    if (argc > 2 && std::string(argv[2]) == "ultrix")
        os = OsKind::Ultrix;
    std::uint64_t refs = argc > 3
        ? std::strtoull(argv[3], nullptr, 10)
        : 1500000;

    std::cout << "TLB tuning for " << benchmarkName(id) << " under "
              << osKindName(os) << "\n\n";

    // Candidate TLBs: the Table 5 grid plus small FA designs.
    std::vector<TlbGeometry> geoms;
    for (std::uint64_t entries : {32, 64, 128, 256, 512}) {
        for (std::uint64_t ways : {1, 2, 4, 8})
            geoms.emplace_back(entries, ways);
        if (entries <= 256)
            geoms.push_back(TlbGeometry::fullyAssoc(entries));
    }

    api::SweepGrid grid;
    grid.tlbGeoms = geoms;
    api::AllocationRequest request;
    request.workloads = {id};
    request.os = os;
    request.references = refs;
    const SweepResult result =
        api::QueryEngine().sweep(request, nullptr, &grid).front();

    AreaModel area;
    TextTable table({"TLB", "Refill CPI", "Area (rbe)",
                     "user misses", "kernel misses"});
    double best_cpi = 1e9;
    for (std::size_t i = 0; i < geoms.size(); ++i)
        best_cpi = std::min(best_cpi, result.tlb(i).cpi());

    std::size_t pick = 0;
    double pick_area = 1e18;
    for (std::size_t i = 0; i < geoms.size(); ++i) {
        const MmuStats &s = result.tlb(i).stats;
        const double cpi = result.tlb(i).cpi();
        const double a = area.tlbArea(geoms[i]);
        table.addRow({geoms[i].describe(), fmtFixed(cpi, 4),
                      fmtGrouped(std::uint64_t(a)),
                      std::to_string(
                          s.counts[unsigned(MissClass::UserMiss)]),
                      std::to_string(
                          s.counts[unsigned(MissClass::KernelMiss)])});
        if (cpi <= best_cpi * 1.05 + 1e-9 && a < pick_area) {
            pick = i;
            pick_area = a;
        }
    }
    table.print(std::cout);

    std::cout << "\nRecommendation: " << geoms[pick].describe()
              << " — cheapest configuration within 5% of the best "
                 "refill CPI ("
              << fmtGrouped(std::uint64_t(pick_area)) << " rbe).\n";
    return 0;
}
