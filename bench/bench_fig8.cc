/**
 * @file
 * Figure 8: set-associative TLB performance relative to a 256-entry
 * fully-associative TLB — video_play under Mach, every TLB a slot of
 * one sweep. Values above 1.0 mean more service time than the
 * reference.
 */

#include <iostream>

#include "bench/common.hh"
#include "support/table.hh"

using namespace oma;

int
main()
{
    omabench::banner("Set-associative TLB service time relative to a "
                     "256-entry fully-associative TLB (video_play, "
                     "Mach)",
                     "Figure 8");

    omabench::BenchReport report("fig8");
    const std::vector<std::uint64_t> sizes = {64, 128, 256, 512};
    const std::vector<std::uint64_t> ways = {1, 2, 4, 8};

    omabench::SweepSuiteSpec spec;
    spec.grid.tlbGeoms.push_back(TlbGeometry::fullyAssoc(256));
    for (std::uint64_t entries : sizes)
        for (std::uint64_t w : ways)
            spec.grid.tlbGeoms.emplace_back(entries, w);
    spec.oses = {OsKind::Mach};
    spec.workloads = {BenchmarkId::VideoPlay};
    spec.progressLabel = "set-associative TLB sweep";
    const auto runs = omabench::runSweepSuite(spec, &report);
    const SweepResult &r = runs.front().results.front();

    const double reference_cycles =
        double(r.tlb(0).stats.totalServiceCycles());

    TextTable table({"Entries", "1-way", "2-way", "4-way", "8-way"});
    std::size_t idx = 1;
    for (std::uint64_t entries : sizes) {
        std::vector<std::string> row = {std::to_string(entries)};
        for (std::size_t w = 0; w < ways.size(); ++w, ++idx) {
            const double cycles =
                double(r.tlb(idx).stats.totalServiceCycles());
            row.push_back(fmtFixed(cycles / reference_cycles, 2));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout
        << "\n(1.00 = the 256-entry fully-associative reference.)\n"
        << "Shape criteria: direct-mapped TLBs perform very poorly "
           "(the paper drops them from the plot); for >= 64 entries "
           "there is little difference among 2-, 4- and 8-way; "
           "512-entry set-associative TLBs reach roughly the "
           "reference's performance at a fraction of its area.\n";
    return 0;
}
