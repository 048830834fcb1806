/**
 * @file
 * Shared pipeline for the Table 6 / Table 7 benches: sweep the full
 * Table 5 configuration grid over the benchmark suite under Mach,
 * average the per-component CPI contributions, and rank allocations
 * under the 250,000-rbe budget.
 */

#ifndef OMA_BENCH_ALLOC_COMMON_HH
#define OMA_BENCH_ALLOC_COMMON_HH

#include <iostream>

#include "bench/common.hh"
#include "core/search.hh"
#include "support/table.hh"

namespace omabench
{

/** Paper's on-chip memory budget (Section 5.4). */
constexpr double paperBudgetRbe = 250000.0;

/**
 * Rank allocations of @p tables through the query API: the benches'
 * spelling of api::QueryEngine::rank (exhaustive strategy, full
 * list). @p max_ways is the associativity restriction (8 = Table 6,
 * 2 = Table 7).
 */
inline std::vector<oma::Allocation>
rankAllocations(const oma::ComponentCpiTables &tables,
                std::uint64_t max_ways, BenchReport *report = nullptr,
                double budget_rbe = paperBudgetRbe)
{
    oma::api::QueryEngine engine;
    oma::api::AllocationRequest request;
    request.budgetRbe = budget_rbe;
    request.maxCacheWays = max_ways;
    request.topK = 0; // the paper's tables sample deep ranks
    return engine
        .rank(request, tables,
              report != nullptr ? report->observation() : nullptr)
        .allocations;
}

/** Measure the suite-averaged component CPI tables under Mach.
 * Extension axes of @p space (victim, write-buffer, L2) ride the same
 * sweep as heterogeneous component slots. With a @p report, every
 * sweep feeds the bench's observation (counters, phase timings,
 * optional progress) and the simulated reference volume is credited
 * toward its refs/sec. */
inline oma::ComponentCpiTables
measureMachTables(const oma::ConfigSpace &space,
                  BenchReport *report = nullptr)
{
    using namespace oma;
    SweepSuiteSpec spec;
    spec.grid = api::SweepGrid::fromSpace(space);
    spec.oses = {OsKind::Mach};
    spec.announce = true;
    const auto runs = runSweepSuite(spec, report);
    std::cout << "\n";
    return ComponentCpiTables::average(
        runs.front().results, MachineParams::decstation3100());
}

/** "+4-line victim", "4-entry WB", "32-KB L2" style summary of an
 * allocation's extension components ("-" when classic). */
inline std::string
describeExtras(const oma::Allocation &a)
{
    std::string extras;
    const auto append = [&extras](const std::string &part) {
        if (!extras.empty())
            extras += ", ";
        extras += part;
    };
    if (a.victimEntries != 0)
        append(std::to_string(a.victimEntries) + "-line victim");
    if (a.unified)
        append("unified L1");
    if (a.hasL2)
        append(oma::fmtKBytes(a.l2.capacityBytes) + " L2");
    if (a.wbEntries != 0)
        append(std::to_string(a.wbEntries) + "-entry WB");
    return extras.empty() ? "-" : extras;
}

/** Print Table 5 (the configuration space considered). */
inline void
printTable5(const oma::ConfigSpace &space)
{
    using namespace oma;
    std::cout << "Table 5 - configurations considered:\n";
    TextTable table({"Structure", "Total capacity",
                     "Associativity", "Line (words)"});
    table.addRow({"TLB", "64 - 512 entries",
                  "1/2/4/8-way + full (<= 64 entries)", "-"});
    table.addRow({"I- and D-cache", "2-KB - 32-KB", "1/2/4/8-way",
                  "1 2 4 8 16 32"});
    table.print(std::cout);
    std::cout << "  TLB configurations: "
              << space.tlbGeometries().size()
              << ", cache configurations: "
              << space.cacheGeometries().size() << " each\n\n";
}

/** Print ranked allocations in the paper's row format. */
inline void
printAllocations(const std::vector<oma::Allocation> &ranked,
                 const std::vector<std::size_t> &rows)
{
    using namespace oma;
    TextTable table({"Rank", "TLB", "I-cache", "D-cache",
                     "Total cost (rbes)", "Total CPI"});
    for (std::size_t row : rows) {
        if (row >= ranked.size())
            continue;
        const Allocation &a = ranked[row];
        table.addRow({std::to_string(a.rank), a.tlb.describe(),
                      a.icache.describe(), a.dcache.describe(),
                      fmtGrouped(std::uint64_t(a.areaRbe)),
                      fmtFixed(a.cpi, 3)});
    }
    table.print(std::cout);
}

} // namespace omabench

#endif // OMA_BENCH_ALLOC_COMMON_HH
