/**
 * @file
 * End-to-end contract of store-backed sweeps: a cold run (fills the
 * store with one shard per task and no trace), a warm run (loads
 * every shard, never records), a run with one slot added (records
 * once, replays only that slot) and a resumed run after a mid-sweep
 * kill must all be bitwise identical to a live no-store sweep — at 1
 * and 4 threads — and corrupt or legacy entries must fall back to
 * live simulation, never to wrong data.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "tests/core/sweep_equal.hh"

namespace oma
{
namespace
{

namespace fs = std::filesystem;

std::vector<CacheGeometry>
cacheSubset()
{
    std::vector<CacheGeometry> geoms;
    for (std::uint64_t kb : {2, 8})
        geoms.push_back(CacheGeometry::fromWords(kb * 1024, 4, 1));
    geoms.push_back(CacheGeometry::fromWords(16 * 1024, 4, 2));
    return geoms;
}

std::vector<TlbGeometry>
tlbSubset()
{
    return {TlbGeometry::fullyAssoc(32), TlbGeometry(128, 2)};
}

/** The workload most tests here sweep. */
const WorkloadParams &
mab()
{
    return benchmarkParams(BenchmarkId::Mab);
}

ComponentSweep
sweepUnderTest()
{
    return ComponentSweep(cacheSubset(), cacheSubset(), tlbSubset());
}

/** Replay tasks in one sweep: reference machine + every config. */
std::uint64_t
taskCount()
{
    return 1 + 2 * cacheSubset().size() + tlbSubset().size();
}

RunConfig
storeRun(const std::string &dir, unsigned threads)
{
    RunConfig rc;
    rc.references = 60000;
    rc.seed = 42;
    rc.threads = threads;
    rc.storeDir = dir;
    return rc;
}

/** Fresh per-test store directory (tests must not inherit a store
 * from the environment either). */
std::string
freshStoreDir(const std::string &name)
{
    ::unsetenv("OMA_STORE_DIR");
    const std::string dir = testing::TempDir() + "/oma_sweep_store_" +
        name + "." + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
}

std::vector<fs::path>
storeEntries(const std::string &dir)
{
    std::vector<fs::path> entries;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".bin")
            entries.push_back(e.path());
    }
    return entries;
}

TEST(StoreSweep, ColdAndWarmRunsMatchTheLiveResultBitwise)
{
    const ComponentSweep sweep = sweepUnderTest();
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("coldwarm");
        const SweepResult live =
            sweep.run(mab(), OsKind::Mach, storeRun("", threads));

        obs::Observation cold_obs;
        const SweepResult cold =
            sweep.run(mab(), OsKind::Mach,
                      storeRun(dir, threads), cold_obs);
        expectSameSweep(live, cold);
        EXPECT_EQ(cold_obs.metrics.counter("sweep/records"), 1u);
        // One shard per task persisted, and no recording.
        EXPECT_EQ(cold_obs.metrics.counter("store/writes"), taskCount());
        EXPECT_EQ(storeEntries(dir).size(), taskCount());

        obs::Observation warm_obs;
        const SweepResult warm =
            sweep.run(mab(), OsKind::Mach,
                      storeRun(dir, threads), warm_obs);
        expectSameSweep(live, warm);
        // The warm run loads one shard per task and nothing else: no
        // record, no replay, no writes.
        EXPECT_EQ(warm_obs.metrics.counter("sweep/records"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("sweep/trace_skips"), 1u);
        EXPECT_EQ(warm_obs.metrics.counter("replay/batched_refs"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
        EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
        EXPECT_EQ(warm_obs.metrics.counter("store/writes"), 0u);
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, WarmReuseIsThreadCountInvariant)
{
    // Thread count is not part of any fingerprint: a store filled at
    // 1 thread serves a 4-thread run (and vice versa) bitwise.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("crossthreads");
    const WorkloadParams &mpeg = benchmarkParams(BenchmarkId::Mpeg);
    const SweepResult cold =
        sweep.run(mpeg, OsKind::Ultrix, storeRun(dir, 1));
    obs::Observation warm_obs;
    const SweepResult warm =
        sweep.run(mpeg, OsKind::Ultrix, storeRun(dir, 4), warm_obs);
    expectSameSweep(cold, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
    fs::remove_all(dir);
}

TEST(StoreSweep, AddedSlotReRecordsAndReplaysAlone)
{
    // A warm store plus one new slot: the stored shards load, the
    // workload is recorded again once, and only the new slot replays
    // and is written — bitwise what a live sweep of the grown grid
    // gives.
    ComponentSweep grown = sweepUnderTest();
    WriteBufferParams wb;
    wb.entries = 2;
    grown.addComponent(ComponentSlot::writeBuffer(wb));
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("grown");
        (void)sweepUnderTest().run(mab(), OsKind::Mach,
                                   storeRun(dir, threads));
        const SweepResult live =
            grown.run(mab(), OsKind::Mach, storeRun("", threads));

        obs::Observation observation;
        const SweepResult warm =
            grown.run(mab(), OsKind::Mach,
                      storeRun(dir, threads), observation);
        expectSameSweep(live, warm);
        ASSERT_EQ(warm.writeBufferCount(), 1u);
        const obs::MetricRegistry &m = observation.metrics;
        EXPECT_EQ(m.counter("sweep/records"), 1u);
        EXPECT_EQ(m.counter("sweep/trace_skips"), 0u);
        // Every stored shard hit; only the new slot missed, replayed
        // its stream and was written.
        EXPECT_EQ(m.counter("store/hits"), taskCount());
        EXPECT_EQ(m.counter("store/misses"), 1u);
        EXPECT_EQ(m.counter("store/writes"), 1u);
        EXPECT_GT(m.counter("replay/batched_refs"), 0u);
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, HierarchyShardsKeyOnlyTheGeometriesTheyRead)
{
    // A unified organization reads only l1i, a split one no l2: a
    // sweep whose hierarchy slots differ from a stored sweep's only in
    // those unread geometries loads every shard and records nothing.
    const auto slots = [](const CacheGeometry &unread_l1d,
                          const CacheGeometry &unread_l2) {
        HierarchyParams unified;
        unified.l1i = CacheGeometry::fromWords(32 * 1024, 4, 2);
        unified.l1d = unread_l1d;
        unified.l2 = unread_l2;
        unified.org = HierarchyOrg::Unified;
        HierarchyParams split;
        split.l1i = CacheGeometry::fromWords(16 * 1024, 4, 2);
        split.l1d = CacheGeometry::fromWords(8 * 1024, 4, 2);
        split.l2 = unread_l2;
        split.org = HierarchyOrg::Split;
        return std::vector<ComponentSlot>{ComponentSlot::hierarchy(unified),
                                          ComponentSlot::hierarchy(split)};
    };
    const ComponentSweep stored(
        slots(CacheGeometry::fromWords(8 * 1024, 4, 2),
              CacheGeometry::fromWords(64 * 1024, 8, 4)));
    const ComponentSweep other(
        slots(CacheGeometry::fromWords(4 * 1024, 4, 1),
              CacheGeometry::fromWords(128 * 1024, 8, 2)));
    const std::string dir = freshStoreDir("hierkeys");
    (void)stored.run(mab(), OsKind::Mach, storeRun(dir, 1));

    obs::Observation observation;
    const SweepResult warm =
        other.run(mab(), OsKind::Mach, storeRun(dir, 1), observation);
    expectSameSweep(other.run(mab(), OsKind::Mach, storeRun("", 1)),
                    warm);
    const obs::MetricRegistry &m = observation.metrics;
    EXPECT_EQ(m.counter("sweep/records"), 0u);
    EXPECT_EQ(m.counter("store/hits"), 3u); // machine + two slots
    EXPECT_EQ(m.counter("store/misses"), 0u);
    EXPECT_EQ(m.counter("store/writes"), 0u);
    fs::remove_all(dir);
}

TEST(StoreSweep, PartiallyStoredQuestionRecordsOnlyWhatIsMissing)
{
    // Workloads 0 and 2 of a question are fully stored and workload 1
    // lacks one shard (its last TLB slot): the question records
    // workload 1 alone, replays and writes only that shard, and
    // equals a live sweep of the whole question.
    const ComponentSweep sweep = sweepUnderTest();
    const ComponentSweep fewer(cacheSubset(), cacheSubset(),
                               {tlbSubset().front()});
    const std::vector<WorkloadParams> workloads = {
        mab(), benchmarkParams(BenchmarkId::Mpeg),
        benchmarkParams(BenchmarkId::Jpeg)};
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const std::string dir = freshStoreDir("partial");
        const std::vector<SweepResult> live =
            sweep.run(workloads, OsKind::Mach, storeRun("", threads));
        (void)sweep.run(std::vector{workloads[0], workloads[2]},
                        OsKind::Mach, storeRun(dir, threads));
        (void)fewer.run(workloads[1], OsKind::Mach,
                        storeRun(dir, threads));

        obs::Observation observation;
        const std::vector<SweepResult> partial = sweep.run(
            workloads, OsKind::Mach, storeRun(dir, threads), observation);
        ASSERT_EQ(partial.size(), workloads.size());
        for (std::size_t w = 0; w < workloads.size(); ++w)
            expectSameSweep(live[w], partial[w]);
        const obs::MetricRegistry &m = observation.metrics;
        EXPECT_EQ(m.counter("sweep/records"), 1u);
        EXPECT_EQ(m.counter("sweep/trace_skips"), 2u);
        EXPECT_EQ(m.counter("sweep/replays"), 1u);
        EXPECT_EQ(m.counter("store/writes"), 1u);
        EXPECT_EQ(m.counter("store/misses"), 1u);
        EXPECT_EQ(m.counter("store/hits"), 3 * taskCount() - 1);
        fs::remove_all(dir);
    }
}

TEST(StoreSweep, ColdSweepReportsCoreTimePerReplayKind)
{
    // A cold classic sweep charges each replay kind its work items'
    // core time (the reference machine's as `machine`) and the
    // calling lane its recording; a warm sweep replays and records
    // nothing, so it reports no core time.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("coretime");
    obs::Observation cold, warm;
    (void)sweep.run(mab(), OsKind::Mach, storeRun(dir, 4), cold);
    (void)sweep.run(mab(), OsKind::Mach, storeRun(dir, 4), warm);
    for (const char *kind : {"icache", "dcache", "tlb", "machine"}) {
        const std::string name =
            std::string("core_ms/sweep/replay/") + kind;
        EXPECT_GT(cold.metrics.gauge(name), 0.0) << name;
    }
    EXPECT_GT(cold.metrics.gauge("core_ms/sweep/record"), 0.0);
    for (const auto &[name, value] : warm.metrics.gauges())
        EXPECT_NE(name.rfind("core_ms/", 0), 0u) << name;
    fs::remove_all(dir);
}

/** Rewrite the stored reference-machine shard with its first 56
 * payload bytes — the layout before the shard carried the recording's
 * length and non-memory CPI. Entry layout (store/store.cc): a 40-byte
 * header {magic u64, version u32, reserved u32, key size u64, payload
 * size u64, FNV-1a payload checksum u64}, the key text, the payload.
 * @return the number of entries rewritten. */
std::size_t
truncateMachineShards(const std::string &dir)
{
    std::size_t rewritten = 0;
    for (const fs::path &path : storeEntries(dir)) {
        std::string raw;
        {
            std::ifstream in(path, std::ios::binary);
            raw.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
        }
        std::uint64_t key_size = 0;
        std::memcpy(&key_size, raw.data() + 16, sizeof key_size);
        const std::string key = raw.substr(40, key_size);
        if (key.find("component=7:machine\n") == std::string::npos)
            continue;
        const std::string payload = raw.substr(40 + key_size, 56);
        std::uint64_t sum = 0xcbf29ce484222325ULL;
        for (const char c : payload) {
            sum ^= std::uint64_t(static_cast<unsigned char>(c));
            sum *= 0x100000001b3ULL;
        }
        const std::uint64_t size = payload.size();
        std::memcpy(raw.data() + 24, &size, sizeof size);
        std::memcpy(raw.data() + 32, &sum, sizeof sum);
        raw.resize(40 + key_size);
        raw += payload;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << raw;
        ++rewritten;
    }
    return rewritten;
}

TEST(StoreSweep, LegacyMachineShardIsRecomputed)
{
    // A 56-byte machine shard (written before the shard held the
    // recording's length and non-memory CPI) decodes as a miss: the
    // sweep records the workload again, replays only the machine
    // task, rewrites its shard in the current layout, and the answer
    // does not change.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("legacy");
    const SweepResult live =
        sweep.run(mab(), OsKind::Mach, storeRun("", 2));
    (void)sweep.run(mab(), OsKind::Mach, storeRun(dir, 2));
    ASSERT_EQ(truncateMachineShards(dir), 1u);

    obs::Observation observation;
    const SweepResult recovered =
        sweep.run(mab(), OsKind::Mach, storeRun(dir, 2), observation);
    expectSameSweep(live, recovered);
    const obs::MetricRegistry &m = observation.metrics;
    EXPECT_EQ(m.counter("sweep/records"), 1u);
    EXPECT_EQ(m.counter("sweep/trace_skips"), 0u);
    // Every shard read once (the legacy one too: the store reads it,
    // the codec refuses it); only the machine shard was replayed and
    // rewritten.
    EXPECT_EQ(m.counter("store/hits"), taskCount());
    EXPECT_EQ(m.counter("store/writes"), 1u);
    EXPECT_EQ(m.counter("store/quarantined"), 0u);

    obs::Observation warm_obs;
    const SweepResult warm =
        sweep.run(mab(), OsKind::Mach, storeRun(dir, 2), warm_obs);
    expectSameSweep(live, warm);
    EXPECT_EQ(warm_obs.metrics.counter("sweep/trace_skips"), 1u);
    EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
    fs::remove_all(dir);
}

TEST(StoreSweep, DifferentConfigurationsNeverShareEntries)
{
    // Same store directory, different seed: nothing may be reused.
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("keyed");
    RunConfig rc = storeRun(dir, 2);
    (void)sweep.run(mab(), OsKind::Mach, rc);
    rc.seed = 43;
    obs::Observation observation;
    (void)sweep.run(mab(), OsKind::Mach, rc, observation);
    EXPECT_EQ(observation.metrics.counter("store/hits"), 0u);
    EXPECT_EQ(observation.metrics.counter("sweep/records"), 1u);
    fs::remove_all(dir);
}

TEST(StoreSweep, CorruptEntriesFallBackToLiveSimulation)
{
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("corrupt");
    const SweepResult live =
        sweep.run(mab(), OsKind::Mach, storeRun("", 2));
    (void)sweep.run(mab(), OsKind::Mach, storeRun(dir, 2));

    // Flip the last byte (payload tail) of every entry: checksums
    // fail, every load quarantines, and the sweep re-simulates.
    const auto entries = storeEntries(dir);
    ASSERT_EQ(entries.size(), taskCount());
    for (const fs::path &path : entries) {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(-1, std::ios::end);
        char last = 0;
        f.get(last);
        f.seekp(-1, std::ios::end);
        const char flipped = char(last ^ 0x40);
        f.write(&flipped, 1);
    }

    obs::Observation observation;
    const SweepResult recovered =
        sweep.run(mab(), OsKind::Mach, storeRun(dir, 2), observation);
    expectSameSweep(live, recovered);
    EXPECT_EQ(observation.metrics.counter("store/quarantined"),
              taskCount());
    EXPECT_EQ(observation.metrics.counter("store/hits"), 0u);
    EXPECT_EQ(observation.metrics.counter("sweep/records"), 1u);

    // The fallback rewrote every entry, so the next run is warm.
    obs::Observation warm_obs;
    const SweepResult warm =
        sweep.run(mab(), OsKind::Mach, storeRun(dir, 2), warm_obs);
    expectSameSweep(live, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    EXPECT_EQ(warm_obs.metrics.counter("store/hits"), taskCount());
    fs::remove_all(dir);
}

TEST(StoreSweep, KilledSweepResumesFromPersistedShards)
{
    const ComponentSweep sweep = sweepUnderTest();
    const std::string dir = freshStoreDir("resume");
    const SweepResult live =
        sweep.run(mab(), OsKind::Mach, storeRun("", 1));

    // Child process: serial store-backed sweep, killed hard after
    // its third completed replay task (each shard is persisted
    // before its progress tick, so the kill point bounds what the
    // store may be missing).
    constexpr std::uint64_t kill_after = 3;
    EXPECT_EXIT(
        {
            obs::Progress progress(
                taskCount(),
                [](std::uint64_t done, std::uint64_t) {
                    if (done >= kill_after)
                        ::_exit(42);
                },
                taskCount());
            obs::Observation observation;
            observation.progress = &progress;
            (void)sweep.run(mab(), OsKind::Mach,
                            storeRun(dir, 1), observation);
        },
        testing::ExitedWithCode(42), "");

    // The kill left a partial store: the completed shards, and not
    // the full set.
    const std::size_t partial = storeEntries(dir).size();
    EXPECT_GE(partial, kill_after);
    EXPECT_LT(partial, taskCount());

    obs::Observation resumed_obs;
    const SweepResult resumed =
        sweep.run(mab(), OsKind::Mach, storeRun(dir, 1), resumed_obs);
    expectSameSweep(live, resumed);
    // The resume records once, loads every persisted shard...
    EXPECT_EQ(resumed_obs.metrics.counter("sweep/records"), 1u);
    EXPECT_GE(resumed_obs.metrics.counter("store/hits"), kill_after);
    // ...and persists only what the kill lost.
    EXPECT_EQ(resumed_obs.metrics.counter("store/writes"),
              taskCount() - partial);

    // After the resume the store is complete, also for 4 threads.
    obs::Observation warm_obs;
    const SweepResult warm =
        sweep.run(mab(), OsKind::Mach, storeRun(dir, 4), warm_obs);
    expectSameSweep(live, warm);
    EXPECT_EQ(warm_obs.metrics.counter("store/misses"), 0u);
    fs::remove_all(dir);
}

} // namespace
} // namespace oma
