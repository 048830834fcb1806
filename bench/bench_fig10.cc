/**
 * @file
 * Figure 10: performance of set-associative instruction caches —
 * suite-average miss ratios and CPI contribution at a fixed 4-word
 * line across sizes and associativities, under Ultrix and Mach.
 */

#include <iostream>

#include "bench/common.hh"
#include "core/sweep.hh"
#include "support/table.hh"

using namespace oma;

namespace
{

const std::vector<std::uint64_t> kSizes = {2, 4, 8, 16, 32};
const std::vector<std::uint64_t> kWays = {1, 2, 4, 8};

std::vector<CacheGeometry>
grid()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : kSizes)
        for (std::uint64_t ways : kWays)
            geoms.push_back(
                CacheGeometry::fromWords(kb * 1024, 4, ways));
    return geoms;
}

void
printGrid(const std::string &title, const std::vector<double> &values,
          int digits)
{
    std::cout << title << "\n";
    TextTable table({"Size \\ Assoc", "1-way", "2-way", "4-way",
                     "8-way"});
    std::size_t i = 0;
    for (std::uint64_t kb : kSizes) {
        std::vector<std::string> row = {fmtKBytes(kb * 1024)};
        for (std::size_t w = 0; w < kWays.size(); ++w, ++i)
            row.push_back(fmtFixed(values[i], digits));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    omabench::banner("Set-associative I-cache performance at a fixed "
                     "4-word line (suite average)",
                     "Figure 10");

    const auto geoms = grid();
    const MachineParams mp = MachineParams::decstation3100();

    omabench::BenchReport report("fig10");
    omabench::SweepSuiteSpec spec;
    spec.grid.icacheGeoms = geoms;
    spec.grid.dcacheGeoms = {CacheGeometry::fromWords(8 * 1024, 4, 1)};
    spec.grid.tlbGeoms = {TlbGeometry::fullyAssoc(64)};
    spec.progressLabel = "set-associative I-cache sweep";
    for (const auto &[os, results] :
         omabench::runSweepSuite(spec, &report)) {
        const auto miss = omabench::suiteAverage(
            results, geoms.size(),
            [](const SweepResult &r, std::size_t i) {
                return r.icache(i).missRatio();
            });
        const auto cpi = omabench::suiteAverage(
            results, geoms.size(),
            [&mp](const SweepResult &r, std::size_t i) {
                return r.icache(i).cpi(mp);
            });

        printGrid(std::string(osKindName(os)) +
                      ": average I-cache miss ratio",
                  miss, 4);
        printGrid(std::string(osKindName(os)) +
                      ": I-cache contribution to CPI",
                  cpi, 3);
    }

    std::cout
        << "Shape criteria: Ultrix gains mainly on small caches and "
           "mainly from 1-way to 2-way; Mach benefits from "
           "associativity over a broader range of sizes, yet even an "
           "8-way 4-KB cache cannot overcome its long code paths "
           "(miss ratio still > ~0.03 in the paper).\n";
    return 0;
}
