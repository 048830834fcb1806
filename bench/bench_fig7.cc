/**
 * @file
 * Figure 7: total TLB service time vs TLB size — fully-associative
 * TLBs, benchmark suite under Mach, Tapeworm methodology: every TLB
 * size is a TLB slot of one sweep per workload, replaying one
 * recording with the OS's page invalidations pinned in place.
 * Simulated service cycles are scaled to each benchmark's nominal
 * full-run instruction count (the paper's benchmarks run 100-200 s
 * each) and summed over the suite.
 */

#include <iostream>
#include <string>

#include "bench/common.hh"
#include "support/table.hh"

using namespace oma;

int
main()
{
    omabench::banner("Total TLB service time vs TLB size "
                     "(fully-associative, Mach, Tapeworm)",
                     "Figure 7");

    omabench::BenchReport report("fig7");
    const std::vector<std::uint64_t> sizes = {32, 64, 128, 256, 512};
    const TlbPenalties penalties =
        MachineParams::decstation3100().tlbPenalties;

    omabench::SweepSuiteSpec spec;
    for (std::uint64_t entries : sizes)
        spec.grid.tlbGeoms.push_back(TlbGeometry::fullyAssoc(entries));
    spec.oses = {OsKind::Mach};
    spec.progressLabel = "TLB size sweep";
    const auto runs = omabench::runSweepSuite(spec, &report);
    const std::vector<SweepResult> &results = runs.front().results;

    // seconds[size][class]
    std::vector<std::array<double, numMissClasses>> seconds(
        sizes.size());
    for (auto &row : seconds)
        row.fill(0.0);

    for (std::size_t w = 0; w < results.size(); ++w) {
        const WorkloadParams &wl = benchmarkParams(spec.workloads[w]);
        const SweepResult &r = results[w];
        const double scale =
            wl.nominalInstructions / double(r.instructions);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const MmuStats &stats = r.tlb(s).stats;
            for (unsigned c = 0; c < numMissClasses; ++c) {
                seconds[s][c] += double(stats.cycles[c]) * scale /
                    penalties.clockHz;
            }
        }
        std::cout << "  [swept " << wl.name << ": " << r.instructions
                  << " instructions, scale x"
                  << fmtFixed(scale, 0) << "]\n";
    }
    std::cout << "\n";

    TextTable table({"TLB entries", "user (s)", "kernel (s)",
                     "modify (s)", "invalid (s)", "other (s)",
                     "total (s)"});
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        double total = 0.0;
        std::vector<std::string> row = {std::to_string(sizes[s])};
        for (unsigned c = 0; c < numMissClasses; ++c)
            total += seconds[s][c];
        for (unsigned c = 0; c < numMissClasses; ++c)
            row.push_back(fmtFixed(seconds[s][c], 1));
        row.push_back(fmtFixed(total, 1));
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout
        << "\nPaper's reading of the figure: a 64-entry FA TLB (the "
           "R2000's) needs >46 s of service over the suite; 256- and "
           "512-entry TLBs cut this to ~10 s, with the remainder "
           "dominated by the size-independent 'other' class (page "
           "faults), so there is little to gain beyond 256-512 "
           "entries.\n"
           "Note: the modify/invalid/other columns are one-time "
           "faults scaled linearly to the nominal run length, which "
           "overstates their absolute seconds (a real run re-touches "
           "pages instead of faulting fresh ones); the shape that "
           "matters — a TLB-size-independent floor under steeply "
           "falling user/kernel refill time — is unaffected.\n";
    return 0;
}
