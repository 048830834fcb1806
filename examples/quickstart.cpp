/**
 * @file
 * Quickstart: the smallest complete use of the library.
 *
 * Builds the mpeg_play workload on the Mach OS model, runs it on a
 * machine with a chosen on-chip memory configuration, and reports
 * the CPI breakdown next to the configuration's die cost — one
 * cost/benefit data point of the kind the paper's search ranks
 * thousands of.
 */

#include <iostream>

#include "area/mqf.hh"
#include "core/experiment.hh"
#include "support/table.hh"

using namespace oma;

int
main()
{
    // 1. Pick an on-chip memory configuration.
    MachineParams machine = MachineParams::decstation3100();
    machine.icache = CacheGeometry::fromWords(16 * 1024, 8, 2);
    machine.dcache = CacheGeometry::fromWords(8 * 1024, 4, 2);
    machine.tlb.geom = TlbGeometry(512, 8);

    // 2. Cost it with the MQF area model.
    AreaModel area;
    const double rbe = area.cacheArea(machine.icache) +
        area.cacheArea(machine.dcache) + area.tlbArea(machine.tlb.geom);

    // 3. Measure its benefit on a workload under a multiple-API OS.
    RunConfig run;
    run.references = 1000000;
    const BaselineResult result =
        runBaseline(BenchmarkId::Mpeg, OsKind::Mach, run, machine);

    // 4. Report.
    std::cout << "Configuration:\n"
              << "  I-cache: " << machine.icache.describe() << "\n"
              << "  D-cache: " << machine.dcache.describe() << "\n"
              << "  TLB:     " << machine.tlb.geom.describe() << "\n"
              << "  Die cost: " << fmtGrouped(std::uint64_t(rbe))
              << " rbe (budget in the paper: 250,000)\n\n"
              << "mpeg_play under Mach 3.0 ("
              << result.instructions << " instructions simulated):\n"
              << "  CPI          " << fmtFixed(result.cpi.cpi, 3) << "\n"
              << "  TLB          " << fmtFixed(result.cpi.tlb, 3) << "\n"
              << "  I-cache      " << fmtFixed(result.cpi.icache, 3)
              << "\n"
              << "  D-cache      " << fmtFixed(result.cpi.dcache, 3)
              << "\n"
              << "  Write buffer "
              << fmtFixed(result.cpi.writeBuffer, 3) << "\n"
              << "  Other        " << fmtFixed(result.cpi.other, 3)
              << "\n";
    return 0;
}
