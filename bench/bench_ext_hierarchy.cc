/**
 * @file
 * Extension: organizational alternatives Table 1 exhibits but the
 * paper does not search — unified L1 caches (i486, PowerPC 601
 * style) and split L1s backed by an on-chip L2 (where the paper
 * predicts high-end parts will spend extra memory). Each
 * organization is sized to roughly the same MQF area and rides the
 * suite sweep as one hierarchy component slot (core/component.hh)
 * under both OS models.
 */

#include <iostream>
#include <iterator>

#include "area/mqf.hh"
#include "bench/common.hh"
#include "cache/hierarchy.hh"
#include "support/table.hh"

using namespace oma;

namespace
{

struct Organization
{
    const char *name;
    HierarchyParams params;
};

CacheGeometry
cache(std::uint64_t kb, std::uint64_t words, std::uint64_t ways)
{
    return CacheGeometry::fromWords(kb * 1024, words, ways);
}

Organization
org(const char *name, HierarchyOrg kind, CacheGeometry l1i,
    CacheGeometry l1d, CacheGeometry l2)
{
    Organization o;
    o.name = name;
    o.params.l1i = l1i;
    o.params.l1d = l1d;
    o.params.l2 = l2;
    o.params.org = kind;
    return o;
}

double
areaOf(const HierarchyParams &p)
{
    AreaModel model;
    double rbe = model.cacheArea(p.l1i);
    if (!p.unified())
        rbe += model.cacheArea(p.l1d);
    if (p.hasL2())
        rbe += model.cacheArea(p.l2);
    return rbe;
}

} // namespace

int
main()
{
    omabench::banner("Extension: unified L1s and on-chip L2s at "
                     "roughly equal die area",
                     "Table 1's organizational alternatives");

    const Organization orgs[] = {
        org("split 16-KB I + 8-KB D (2-way, 4w)", HierarchyOrg::Split,
            cache(16, 4, 2), cache(8, 4, 2), cache(64, 8, 4)),
        org("unified 32-KB (2-way, 4w)", HierarchyOrg::Unified,
            cache(32, 4, 2), cache(8, 4, 2), cache(64, 8, 4)),
        org("unified 32-KB (8-way, 16w, PPC601-ish)",
            HierarchyOrg::Unified, cache(32, 16, 8), cache(8, 4, 2),
            cache(64, 8, 4)),
        org("split 8-KB I + 4-KB D + 16-KB L2 (8w lines)",
            HierarchyOrg::SplitL2, cache(8, 4, 2), cache(4, 4, 2),
            cache(16, 8, 4)),
        org("split 4-KB I + 2-KB D + 32-KB L2 (8w lines)",
            HierarchyOrg::SplitL2, cache(4, 4, 2), cache(2, 4, 2),
            cache(32, 8, 4)),
    };

    omabench::BenchReport report("ext_hierarchy");
    omabench::SweepSuiteSpec spec;
    for (const Organization &o : orgs)
        spec.grid.components.push_back(ComponentSlot::hierarchy(o.params));
    spec.progressLabel = "hierarchy sweep";
    const auto runs = omabench::runSweepSuite(spec, &report);

    TextTable table({"Organization", "MQF area (rbes)",
                     "Ultrix cache CPI", "Mach cache CPI"});
    for (std::size_t i = 0; i < std::size(orgs); ++i) {
        // Suite-average hierarchy stall CPI per OS (runs are in spec
        // order: Ultrix first, Mach second).
        double cpi[2] = {0.0, 0.0};
        for (std::size_t o = 0; o < runs.size(); ++o) {
            for (const SweepResult &r : runs[o].results)
                cpi[o] += r.hierarchy(i).cpi();
            cpi[o] /= double(runs[o].results.size());
        }
        const double rbe = areaOf(orgs[i].params);
        const std::string slug = "hierarchy/org" + std::to_string(i);
        report.metrics().add("hierarchy/organizations");
        report.metrics().set(slug + "/area_rbe", rbe);
        report.metrics().set(slug + "/ultrix_cache_cpi", cpi[0]);
        report.metrics().set(slug + "/mach_cache_cpi", cpi[1]);
        table.addRow({orgs[i].name, fmtGrouped(std::uint64_t(rbe)),
                      fmtFixed(cpi[0], 3), fmtFixed(cpi[1], 3)});
    }
    table.print(std::cout);

    std::cout
        << "\nReading guide: the unified organizations pay a port "
           "conflict on every data reference and suffer code/data "
           "cross-interference — which a multiple-API OS, whose "
           "service code floods the cache, amplifies. Backing small "
           "split L1s with an L2 recovers much of a large split "
           "pair's performance at similar area, supporting the "
           "paper's expectation that extra on-chip memory beyond the "
           "primaries belongs in a second level.\n";
    return 0;
}
