/**
 * @file
 * Figure 9: instruction-cache performance — suite-average miss
 * ratios and I-cache CPI contribution for direct-mapped I-caches
 * across sizes and line sizes, under Ultrix and Mach.
 */

#include <iostream>

#include "bench/common.hh"
#include "core/sweep.hh"
#include "support/table.hh"

using namespace oma;

namespace
{

const std::vector<std::uint64_t> kSizes = {2, 4, 8, 16, 32};
const std::vector<std::uint64_t> kLines = {1, 2, 4, 8, 16, 32};

std::vector<CacheGeometry>
grid()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : kSizes)
        for (std::uint64_t words : kLines)
            geoms.push_back(
                CacheGeometry::fromWords(kb * 1024, words, 1));
    return geoms;
}

void
printGrid(const std::string &title,
          const std::vector<CacheGeometry> &geoms,
          const std::vector<double> &values, int digits)
{
    std::cout << title << "\n";
    TextTable table({"Size \\ Line", "1w", "2w", "4w", "8w", "16w",
                     "32w"});
    std::size_t i = 0;
    for (std::uint64_t kb : kSizes) {
        std::vector<std::string> row = {fmtKBytes(kb * 1024)};
        for (std::size_t l = 0; l < kLines.size(); ++l, ++i) {
            (void)geoms;
            row.push_back(fmtFixed(values[i], digits));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    omabench::banner("Instruction-cache performance: direct-mapped "
                     "miss ratios and CPI contribution vs size and "
                     "line size (suite average)",
                     "Figure 9");

    omabench::BenchReport report("fig9");
    const auto geoms = grid();
    const MachineParams mp = MachineParams::decstation3100();

    omabench::SweepSuiteSpec spec;
    spec.grid.icacheGeoms = geoms;
    spec.grid.dcacheGeoms = {CacheGeometry::fromWords(8 * 1024, 4, 1)};
    spec.grid.tlbGeoms = {TlbGeometry::fullyAssoc(64)};
    spec.progressLabel = "I-cache grid sweep";
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
                  geoms, miss, 4);
        printGrid(std::string(osKindName(os)) +
                      ": I-cache contribution to CPI "
                      "(penalty 6 + 1/word)",
                  geoms, cpi, 3);
    }

    std::cout
        << "Paper anchor points: Ultrix 8-KB/4-word miss ratio "
           "0.028, 32-KB/4-word 0.013; Mach 8-KB/4-word 0.065 (more "
           "than double Ultrix).\n"
           "Shape criteria: under Mach, doubling the line size beats "
           "doubling the cache size and no pollution appears even at "
           "32-word lines, while Ultrix shows pollution for large "
           "lines on small caches; in CPI terms, 16-word lines mark "
           "the upturn.\n";
    return 0;
}
