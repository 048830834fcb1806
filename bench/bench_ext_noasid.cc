/**
 * @file
 * Extension: what address-space identifiers are worth. Table 1's x86
 * parts (i486, Cyrix) flush the whole TLB on every context switch;
 * the R2000 tags entries with a 6-bit ASID. This bench measures TLB
 * refill CPI with and without ASIDs across TLB sizes under both OS
 * models — quantifying how a multiple-API system, which crosses
 * address spaces on every service, depends on ASIDs. Every
 * configuration is a TLB slot of one sweep per workload and OS.
 */

#include <iostream>
#include <iterator>

#include "bench/common.hh"
#include "support/table.hh"

using namespace oma;

namespace
{

constexpr std::uint64_t tlbSizes[] = {32, 64, 128, 256};

/**
 * Suite-average TLB refill CPI of every slot of @p grid under @p os:
 * one sweep per workload, whose slots all replay one recording.
 */
std::vector<double>
suiteRefillCpi(const api::QueryEngine &engine, OsKind os,
               const api::SweepGrid &grid, std::uint64_t refs,
               omabench::BenchReport &report)
{
    api::AllocationRequest request;
    request.os = os;
    request.references = refs;
    request.seed = 42;
    const std::vector<SweepResult> results =
        engine.sweep(request, report.observation(), &grid);
    for (const SweepResult &r : results)
        report.addReferences(r.references);
    return omabench::suiteAverage(
        results, grid.components.size(),
        [](const SweepResult &r, std::size_t i) {
            return r.tlb(i).cpi();
        });
}

} // namespace

int
main()
{
    omabench::banner("Extension: TLB refill CPI with and without "
                     "address-space identifiers",
                     "Table 1 (i486-style flushing TLBs) applied to "
                     "Section 4.2");

    omabench::BenchReport report("ext_noasid");
    const std::uint64_t refs = omabench::benchReferences() / 3;
    // Each FA size twice: tagged with ASIDs, then flushed on every
    // address-space switch.
    api::SweepGrid grid;
    for (std::uint64_t entries : tlbSizes) {
        for (const bool flush : {false, true}) {
            TlbParams p;
            p.geom = TlbGeometry::fullyAssoc(entries);
            p.flushOnAsidSwitch = flush;
            grid.components.push_back(ComponentSlot::tlb(p));
        }
    }
    const api::QueryEngine engine;
    const std::vector<double> ultrix =
        suiteRefillCpi(engine, OsKind::Ultrix, grid, refs, report);
    const std::vector<double> mach =
        suiteRefillCpi(engine, OsKind::Mach, grid, refs, report);

    TextTable table({"TLB (FA)", "Ultrix ASIDs", "Ultrix flush",
                     "Mach ASIDs", "Mach flush"});
    for (std::size_t k = 0; k < std::size(tlbSizes); ++k) {
        const double uy = ultrix[2 * k], un = ultrix[2 * k + 1];
        const double my = mach[2 * k], mn = mach[2 * k + 1];
        const std::string slug =
            "noasid/" + std::to_string(tlbSizes[k]) + "e";
        report.metrics().set(slug + "/ultrix_asid_cpi", uy);
        report.metrics().set(slug + "/ultrix_flush_cpi", un);
        report.metrics().set(slug + "/mach_asid_cpi", my);
        report.metrics().set(slug + "/mach_flush_cpi", mn);
        table.addRow({std::to_string(tlbSizes[k]), fmtFixed(uy, 3),
                      fmtFixed(un, 3), fmtFixed(my, 3),
                      fmtFixed(mn, 3)});
    }
    table.print(std::cout);

    std::cout
        << "\nReading guide: without ASIDs every RPC's address-space "
           "crossings (app -> kernel-mediated switch -> server -> "
           "back) dump the whole TLB, so the multiple-API system "
           "pays a far larger multiple than the monolithic one — and "
           "larger TLBs cannot buy the loss back, since flushes "
           "erase capacity. (Penalties are the R2000's software-"
           "managed ones; an i486's hardware walker would soften the "
           "absolute numbers but not the asymmetry.) This is why the "
           "paper's recommended large set-associative TLBs "
           "presuppose R2000-style ASIDs — and why the monolithic "
           "system, which switches spaces only at frame boundaries, "
           "barely notices the flushes.\n";
    return 0;
}
