/**
 * @file
 * Sweep-level proof of the one-pass cache engine: a ComponentSweep
 * mixing cache slots of several line sizes on both streams (one
 * group with a single member) with one slot of every other kind must
 * report exactly what replaying each slot on its own simulator
 * reports — at 1 and 4 threads, on a cold and on a warm store — and
 * `replay/cache_passes` must count one pass per (stream, line size)
 * group on a cold store and none on a warm one.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/component.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "tests/core/sweep_equal.hh"
#include "workload/system.hh"

namespace oma
{
namespace
{

CacheGeometry
lru(std::uint64_t kbytes, std::uint64_t line_words, std::uint64_t ways)
{
    return CacheGeometry::fromWords(kbytes * 1024, line_words, ways);
}

/** The mixed slot list, and how many pass groups it forms. */
std::vector<ComponentSlot>
mixedSlots()
{
    std::vector<ComponentSlot> slots;
    // I-cache groups: 4-word lines (three geometries) and 8-word
    // lines (two).
    slots.push_back(ComponentSlot::icache(lru(4, 4, 1)));
    slots.push_back(ComponentSlot::icache(lru(8, 8, 2)));
    slots.push_back(ComponentSlot::icache(lru(8, 4, 2)));
    slots.push_back(ComponentSlot::icache(lru(2, 4, 8)));
    slots.push_back(ComponentSlot::icache(lru(2, 8, 1)));
    // D-cache groups: 4-word lines (two) and 1-word lines (one).
    slots.push_back(ComponentSlot::dcache(lru(4, 4, 2)));
    slots.push_back(ComponentSlot::dcache(lru(16, 4, 1)));
    slots.push_back(ComponentSlot::dcache(lru(8, 1, 4)));

    TlbParams tlb;
    tlb.geom = TlbGeometry(64, 2);
    slots.push_back(ComponentSlot::tlb(tlb));
    VictimParams victim;
    victim.l1 = CacheGeometry::fromWords(4 * 1024, 4, 1);
    victim.entries = 4;
    slots.push_back(ComponentSlot::victim(victim));
    WriteBufferParams wb;
    wb.entries = 2;
    slots.push_back(ComponentSlot::writeBuffer(wb));
    HierarchyParams split;
    split.l1i = CacheGeometry::fromWords(4 * 1024, 4, 2);
    split.l1d = CacheGeometry::fromWords(2 * 1024, 4, 2);
    split.l2 = CacheGeometry::fromWords(16 * 1024, 8, 4);
    split.org = HierarchyOrg::SplitL2;
    slots.push_back(ComponentSlot::hierarchy(split));
    return slots;
}

/** (icache, 4 words), (icache, 8 words), (dcache, 4 words),
 * (dcache, 1 word). */
constexpr std::uint64_t mixedGroups = 4;

TEST(CachePassSweep, MatchesPerSlotReplayColdAndWarmAtAnyThreadCount)
{
    const std::vector<ComponentSlot> slots = mixedSlots();
    const ComponentSweep sweep(slots);
    const WorkloadParams &workload = benchmarkParams(BenchmarkId::Mpeg);
    RunConfig rc;
    rc.references = 80000;
    rc.seed = 42;

    // The oracle: every slot on its own simulator over the recording
    // the sweep makes.
    System system(workload, OsKind::Mach, rc.seed);
    const RecordedTrace trace = system.record(rc.references);
    const MachineParams mp = MachineParams::decstation3100();
    std::vector<std::string> expected;
    for (const ComponentSlot &slot : slots) {
        const auto component = makeComponent(slot, mp);
        replayComponent(trace, *component);
        expected.push_back(encodeComponentCounters(component->counters()));
    }
    const auto expect_oracle = [&](const SweepResult &result) {
        ASSERT_EQ(result.componentCount(), slots.size());
        std::size_t seen[numComponentKinds] = {};
        for (std::size_t s = 0; s < slots.size(); ++s) {
            SCOPED_TRACE(slots[s].describe());
            const ComponentKind kind = slots[s].kind;
            EXPECT_EQ(encodeComponentCounters(sweptCounters(
                          result, kind, seen[std::size_t(kind)]++)),
                      expected[s]);
        }
    };

    ::unsetenv("OMA_STORE_DIR");
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        rc.threads = threads;
        rc.storeDir = testing::TempDir() + "/oma_cache_pass." +
            std::to_string(::getpid()) + "." + std::to_string(threads);
        std::filesystem::remove_all(rc.storeDir);

        obs::Observation cold_obs;
        expect_oracle(sweep.run(workload, OsKind::Mach, rc, cold_obs));
        EXPECT_EQ(cold_obs.metrics.counter("replay/cache_passes"),
                  mixedGroups);
        EXPECT_EQ(cold_obs.metrics.counter("sweep/records"), 1u);

        obs::Observation warm_obs;
        expect_oracle(sweep.run(workload, OsKind::Mach, rc, warm_obs));
        EXPECT_EQ(warm_obs.metrics.counter("replay/cache_passes"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);

        // Storeless, straight from the recording.
        obs::Observation live_obs;
        expect_oracle(sweep.run(trace, threads, live_obs));
        EXPECT_EQ(live_obs.metrics.counter("replay/cache_passes"),
                  mixedGroups);
        std::filesystem::remove_all(rc.storeDir);
    }
}

} // namespace
} // namespace oma
