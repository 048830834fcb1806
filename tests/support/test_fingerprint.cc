/**
 * @file
 * Golden canonical-text tests for the component parameter
 * fingerprints. The artifact store keys every replay shard by these
 * texts (src/store), so any accidental change to a field name, field
 * order or value encoding silently orphans every previously stored
 * shard. These tests pin the exact canonical text of every component
 * kind's parameters (cache, TLB, victim cache, write buffer,
 * hierarchy) and of the reference machine, and the frames of the
 * query API's response and measurement keys.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/request.hh"
#include "cache/hierarchy.hh"
#include "cache/victim.hh"
#include "machine/machine.hh"
#include "machine/writebuffer.hh"
#include "support/fingerprint.hh"

namespace oma
{
namespace
{

TEST(FingerprintText, CacheTlbAndMachineParamsCanonicalText)
{
    // The classic shard keys: one line per field, so a changed field
    // shows by name, not only as a new store digest.
    Fingerprint cache_fp;
    CacheGeometry(8192, 16, 2).fingerprint(cache_fp);
    EXPECT_EQ(cache_fp.text(), "cache_geom.capacity_bytes=8192\n"
                               "cache_geom.line_bytes=16\n"
                               "cache_geom.assoc=2\n");

    TlbParams tlb;
    tlb.geom = TlbGeometry(128, 4);
    Fingerprint tlb_fp;
    tlb.fingerprint(tlb_fp);
    EXPECT_EQ(tlb_fp.text(), "tlb_geom.entries=128\n"
                             "tlb_geom.assoc=4\n"
                             "tlb.flush_on_asid_switch=0\n");
    tlb.flushOnAsidSwitch = true;
    Fingerprint flush_fp;
    tlb.fingerprint(flush_fp);
    EXPECT_EQ(flush_fp.text(), "tlb_geom.entries=128\n"
                               "tlb_geom.assoc=4\n"
                               "tlb.flush_on_asid_switch=1\n");

    Fingerprint machine_fp;
    MachineParams::decstation3100().fingerprint(machine_fp);
    EXPECT_EQ(machine_fp.text(), "machine.icache=0:\n"
                                 "cache_geom.capacity_bytes=65536\n"
                                 "cache_geom.line_bytes=4\n"
                                 "cache_geom.assoc=1\n"
                                 "machine.dcache=0:\n"
                                 "cache_geom.capacity_bytes=65536\n"
                                 "cache_geom.line_bytes=4\n"
                                 "cache_geom.assoc=1\n"
                                 "machine.tlb=0:\n"
                                 "tlb_geom.entries=64\n"
                                 "tlb_geom.assoc=0\n"
                                 "tlb.flush_on_asid_switch=0\n"
                                 "tlb_pen.user_miss=20\n"
                                 "tlb_pen.kernel_miss=300\n"
                                 "tlb_pen.modify_fault=375\n"
                                 "tlb_pen.invalid_fault=336\n"
                                 "tlb_pen.page_fault=800\n"
                                 "machine.miss_first_word=6\n"
                                 "machine.miss_per_word=1\n"
                                 "machine.uncached_load=6\n"
                                 "machine.wb_entries=4\n"
                                 "machine.wb_drain_cycles=3\n"
                                 "machine.i_prefetch_next_line=0\n");
}

TEST(FingerprintText, VictimParamsCanonicalText)
{
    VictimParams p;
    p.l1 = CacheGeometry(8192, 16, 1);
    p.entries = 4;
    Fingerprint fp;
    p.fingerprint(fp);
    EXPECT_EQ(fp.text(), "cache_geom.capacity_bytes=8192\n"
                         "cache_geom.line_bytes=16\n"
                         "cache_geom.assoc=1\n"
                         "victim.entries=4\n");
}

TEST(FingerprintText, WriteBufferParamsCanonicalText)
{
    WriteBufferParams p;
    p.entries = 4;
    p.drainCycles = 3;
    Fingerprint fp;
    p.fingerprint(fp);
    EXPECT_EQ(fp.text(), "wb.entries=4\n"
                         "wb.drain_cycles=3\n");
}

TEST(FingerprintText, HierarchyParamsCanonicalText)
{
    HierarchyParams p;
    p.l1i = CacheGeometry(8192, 16, 2);
    p.l1d = CacheGeometry(4096, 16, 2);
    p.l2 = CacheGeometry(32768, 32, 4);
    p.org = HierarchyOrg::SplitL2;
    Fingerprint fp;
    p.fingerprint(fp);
    EXPECT_EQ(fp.text(), "hier.l1i=0:\n"
                         "cache_geom.capacity_bytes=8192\n"
                         "cache_geom.line_bytes=16\n"
                         "cache_geom.assoc=2\n"
                         "hier.l1d=0:\n"
                         "cache_geom.capacity_bytes=4096\n"
                         "cache_geom.line_bytes=16\n"
                         "cache_geom.assoc=2\n"
                         "hier.l2=0:\n"
                         "cache_geom.capacity_bytes=32768\n"
                         "cache_geom.line_bytes=32\n"
                         "cache_geom.assoc=4\n"
                         "hier.has_l2=1\n"
                         "hier.unified=0\n"
                         "hier.l2_first_word=2\n"
                         "hier.l2_per_word=0\n"
                         "hier.mem_first_word=6\n"
                         "hier.mem_per_word=1\n"
                         "hier.port_conflict=1\n");

    // The other two organizations, as bench_ext_hierarchy builds
    // them: each keys only the geometries it simulates, so a unified
    // one keys no l1d and neither keys the l2.
    p.l1i = CacheGeometry(32768, 16, 2);
    p.l1d = CacheGeometry(8192, 16, 2);
    p.l2 = CacheGeometry(65536, 32, 4);
    p.org = HierarchyOrg::Unified;
    Fingerprint unified_fp;
    p.fingerprint(unified_fp);
    EXPECT_EQ(unified_fp.text(), "hier.l1i=0:\n"
                                 "cache_geom.capacity_bytes=32768\n"
                                 "cache_geom.line_bytes=16\n"
                                 "cache_geom.assoc=2\n"
                                 "hier.has_l2=0\n"
                                 "hier.unified=1\n"
                                 "hier.l2_first_word=2\n"
                                 "hier.l2_per_word=0\n"
                                 "hier.mem_first_word=6\n"
                                 "hier.mem_per_word=1\n"
                                 "hier.port_conflict=1\n");

    p.l1i = CacheGeometry(16384, 16, 2);
    p.org = HierarchyOrg::Split;
    Fingerprint split_fp;
    p.fingerprint(split_fp);
    EXPECT_EQ(split_fp.text(), "hier.l1i=0:\n"
                               "cache_geom.capacity_bytes=16384\n"
                               "cache_geom.line_bytes=16\n"
                               "cache_geom.assoc=2\n"
                               "hier.l1d=0:\n"
                               "cache_geom.capacity_bytes=8192\n"
                               "cache_geom.line_bytes=16\n"
                               "cache_geom.assoc=2\n"
                               "hier.has_l2=0\n"
                               "hier.unified=0\n"
                               "hier.l2_first_word=2\n"
                               "hier.l2_per_word=0\n"
                               "hier.mem_first_word=6\n"
                               "hier.mem_per_word=1\n"
                               "hier.port_conflict=1\n");
}

TEST(FingerprintText, AllocationRequestKeySchemeIsPinned)
{
    // The response-key scheme of the query API (docs/MODEL.md §14):
    // these texts key every served answer in the artifact store, so a
    // renamed field or reordered section silently orphans all stored
    // responses. The workload and space sections are pinned by their
    // own scheme tests; here the API-owned frame around them is.
    api::AllocationRequest request;
    request.workloads = {BenchmarkId::Mpeg};
    const std::string text = request.responseKey().text();

    const std::string header = "api.format_version=1\n"
                               "store.format_version=1\n"
                               "trace.format_version=3\n"
                               "run.os=4:Mach\n"
                               "run.seed=42\n"
                               "run.references=3000000\n"
                               "workloads.n=1\n"
                               "workload.name=9:mpeg_play\n";
    EXPECT_EQ(text.substr(0, header.size()), header);

    const std::string tail = "search.max_cache_ways=8\n"
                             "search.budget_rbe=250000\n"
                             "search.top_k=10\n"
                             "search.strategy=10:exhaustive\n"
                             "artifact=8:response\n";
    ASSERT_GE(text.size(), tail.size());
    EXPECT_EQ(text.substr(text.size() - tail.size()), tail);

    request.strategy = api::Strategy::Annealing;
    const std::string annealed = request.responseKey().text();
    const std::string anneal_tail = "search.strategy=9:annealing\n"
                                    "anneal.seed=42\n"
                                    "anneal.chains=6\n"
                                    "anneal.iterations=2000\n"
                                    "anneal.initial_temp=0.05\n"
                                    "anneal.final_temp=1e-04\n"
                                    "artifact=8:response\n";
    ASSERT_GE(annealed.size(), anneal_tail.size());
    EXPECT_EQ(annealed.substr(annealed.size() - anneal_tail.size()),
              anneal_tail);
}

TEST(FingerprintText, AllocationRequestKeySeparatesContentFromSchedule)
{
    const auto hexOf = [](const api::AllocationRequest &r) {
        return r.responseKey().hex();
    };
    api::AllocationRequest base;
    base.workloads = {BenchmarkId::Mpeg};

    // Execution detail never moves the key...
    api::AllocationRequest threads = base;
    threads.threads = 16;
    EXPECT_EQ(hexOf(base), hexOf(threads));

    // ...while each content knob does: strategy alone,
    api::AllocationRequest annealed = base;
    annealed.strategy = api::Strategy::Annealing;
    EXPECT_NE(hexOf(base), hexOf(annealed));
    // the annealing seed alone under the annealing strategy,
    api::AllocationRequest reseeded = annealed;
    reseeded.annealing.seed = annealed.annealing.seed + 1;
    EXPECT_NE(hexOf(annealed), hexOf(reseeded));
    // and the run seed, references, budget and mix.
    api::AllocationRequest perturbed = base;
    perturbed.seed = 43;
    EXPECT_NE(hexOf(base), hexOf(perturbed));
    perturbed = base;
    perturbed.references = base.references + 1;
    EXPECT_NE(hexOf(base), hexOf(perturbed));
    perturbed = base;
    perturbed.budgetRbe = base.budgetRbe / 2;
    EXPECT_NE(hexOf(base), hexOf(perturbed));
    perturbed = base;
    perturbed.workloads = {BenchmarkId::VideoPlay};
    EXPECT_NE(hexOf(base), hexOf(perturbed));
}

TEST(FingerprintText, MeasurementKeySchemeIsPinned)
{
    // The key of the averaged CPI tables of the default Table 6
    // request: the response key's measured fields, then the payload
    // version and the reference machine. Its 274 lines are pinned by
    // their digest; the frame around the workload and space sections
    // (pinned by their own scheme tests) is pinned as text.
    const api::AllocationRequest request;
    const Fingerprint key = request.measurementKey();
    const std::string &text = key.text();

    const std::string header = "api.format_version=1\n"
                               "store.format_version=1\n"
                               "trace.format_version=3\n"
                               "run.os=4:Mach\n"
                               "run.seed=42\n"
                               "run.references=3000000\n"
                               "workloads.n=6\n"
                               "workload.name=9:mpeg_play\n";
    EXPECT_EQ(text.substr(0, header.size()), header);

    Fingerprint machine;
    MachineParams::decstation3100().fingerprint(machine);
    const std::string tail = "space.hier_l1_ways=2\n"
                             "measurement.format_version=1\n" +
        machine.text() + "artifact=11:measurement\n";
    ASSERT_GE(text.size(), tail.size());
    EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
    EXPECT_EQ(key.hex(), "6243cb9ad2164aae1b86920880934441");
}

TEST(FingerprintText, MeasurementKeySeparatesMeasurementFromRanking)
{
    const auto hexOf = [](const api::AllocationRequest &r) {
        return r.measurementKey().hex();
    };
    const api::AllocationRequest base;

    // Every ranking knob and the schedule leave the key alone...
    api::AllocationRequest ranked = base;
    ranked.budgetRbe = base.budgetRbe / 2;
    ranked.maxCacheWays = 2;
    ranked.strategy = api::Strategy::Annealing;
    ranked.annealing.seed += 1;
    ranked.annealing.chains += 1;
    ranked.annealing.iterations += 1;
    ranked.annealing.initialTemp *= 2;
    ranked.annealing.finalTemp *= 2;
    ranked.topK = 3;
    ranked.threads = 16;
    EXPECT_EQ(hexOf(ranked), hexOf(base));
    EXPECT_NE(ranked.responseKey().hex(), base.responseKey().hex());

    // ...while the run, the workload order and every space axis move
    // it.
    std::vector<api::AllocationRequest> measured(19, base);
    measured[0].os = OsKind::Ultrix;
    measured[1].seed += 1;
    measured[2].references += 1;
    std::reverse(measured[3].workloads.begin(),
                 measured[3].workloads.end());
    measured[4].space.tlbEntries = {64};
    measured[5].space.tlbWays = {1};
    measured[6].space.tlbFullAssocMax = 0;
    measured[7].space.cacheKBytes = {2};
    measured[8].space.lineWords = {4};
    measured[9].space.cacheWays = {1};
    measured[10].space.victimEntries = {4};
    measured[11].space.victimLineWords = 8;
    measured[12].space.wbEntries = {4};
    measured[13].space.wbDrainCycles = 5;
    measured[14].space.l2KBytes = {64};
    measured[15].space.l2Ways = 2;
    measured[16].space.l2LineWords = 16;
    measured[17].space.hierL1LineWords = 8;
    measured[18].space.hierL1Ways = 1;
    for (std::size_t i = 0; i < measured.size(); ++i)
        EXPECT_NE(hexOf(measured[i]), hexOf(base)) << "change " << i;
}

TEST(FingerprintText, EveryFieldReachesTheHash)
{
    // Round-trip sanity: identical params hash identically, and every
    // behaviour-determining field perturbs the hash.
    const auto hexOf = [](const auto &p) {
        Fingerprint fp;
        p.fingerprint(fp);
        return fp.hex();
    };

    VictimParams v;
    v.l1 = CacheGeometry(8192, 16, 1);
    EXPECT_EQ(hexOf(v), hexOf(v));
    VictimParams v2 = v;
    v2.entries = 8;
    EXPECT_NE(hexOf(v), hexOf(v2));

    WriteBufferParams w;
    EXPECT_EQ(hexOf(w), hexOf(w));
    WriteBufferParams w2 = w;
    w2.drainCycles = 5;
    EXPECT_NE(hexOf(w), hexOf(w2));

    HierarchyParams h;
    h.l1i = CacheGeometry(8192, 16, 2);
    h.l1d = h.l1i;
    h.l2 = CacheGeometry(32768, 32, 4);
    EXPECT_EQ(hexOf(h), hexOf(h));
    HierarchyParams h2 = h;
    h2.org = HierarchyOrg::Unified;
    EXPECT_NE(hexOf(h), hexOf(h2));
    HierarchyParams h3 = h;
    h3.penalties.l2FirstWord = 4;
    EXPECT_NE(hexOf(h), hexOf(h3));
}

} // namespace
} // namespace oma
