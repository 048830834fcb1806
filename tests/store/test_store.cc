/**
 * @file
 * The artifact store's correctness-over-reuse contract: canonical
 * fingerprints (the cache-key scheme is pinned here), verified
 * round trips, and — most importantly — every failure path
 * (truncation, garbage, lying sizes, bit flips, hash collisions,
 * concurrent writers, full disks) degrading to a detected miss or a
 * loud fatal, never to wrong data.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "store/codec.hh"
#include "store/store.hh"
#include "support/fingerprint.hh"
#include "workload/workload.hh"

namespace oma
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test store root under the test temp directory. */
std::string
storeRoot(const std::string &name)
{
    const std::string root = testing::TempDir() + "/oma_store_" +
        name + "." + std::to_string(::getpid());
    fs::remove_all(root);
    return root;
}

Fingerprint
sampleKey(std::uint64_t salt = 0)
{
    Fingerprint fp;
    fp.str("artifact", "unit");
    fp.u64("salt", salt);
    return fp;
}

TEST(Fingerprint, CanonicalTextIsPinned)
{
    // The exact serialization IS the cache-key format; changing it
    // silently invalidates every store. Break this test consciously.
    Fingerprint fp;
    fp.u64("answer", 42);
    fp.real("half", 0.5);
    fp.str("name", "a=b\n");
    fp.flag("on", true);
    fp.flag("off", false);
    EXPECT_EQ(fp.text(),
              "answer=42\nhalf=0.5\nname=4:a=b\n\non=1\noff=0\n");
}

TEST(Fingerprint, HexIs32LowercaseDigitsAndTracksText)
{
    Fingerprint a, b;
    a.u64("x", 1);
    b.u64("x", 1);
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 32u);
    for (const char c : a.hex())
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << c;
    b.u64("y", 2);
    EXPECT_NE(a.hex(), b.hex());
}

TEST(Fingerprint, FieldOrderMatters)
{
    Fingerprint ab, ba;
    ab.u64("a", 1);
    ab.u64("b", 2);
    ba.u64("b", 2);
    ba.u64("a", 1);
    EXPECT_NE(ab.hex(), ba.hex());
}

TEST(Fingerprint, CopiesExtendIndependently)
{
    // Sweep shards extend one base key per task; the base must not
    // accumulate the extensions.
    Fingerprint base;
    base.u64("seed", 42);
    Fingerprint a = base, b = base;
    a.u64("index", 0);
    b.u64("index", 1);
    EXPECT_NE(a.hex(), b.hex());
    EXPECT_EQ(base.text(), "seed=42\n");
}

TEST(Fingerprint, WorkloadSchemeCoversEveryField)
{
    // One line per fingerprinted field: 26 scalars plus 3 per
    // syscall-mix entry. A new WorkloadParams field that is not added
    // to fingerprint() would let two different workloads share a
    // cache key; this count forces the update to be deliberate.
    const WorkloadParams &wp = benchmarkParams(BenchmarkId::Mpeg);
    Fingerprint fp;
    wp.fingerprint(fp);
    const auto lines =
        std::count(fp.text().begin(), fp.text().end(), '\n');
    EXPECT_EQ(lines, 26 + 3 * std::int64_t(wp.syscalls.size()));
    EXPECT_NE(fp.text().find("workload.name="), std::string::npos);
}

TEST(ArtifactStore, OpenPolicyConfiguredThenEnvThenDisabled)
{
    const std::string dir = storeRoot("open");
    ::unsetenv("OMA_STORE_DIR");
    EXPECT_EQ(ArtifactStore::open(""), nullptr);

    const auto configured = ArtifactStore::open(dir);
    ASSERT_NE(configured, nullptr);
    EXPECT_EQ(configured->root(), dir);

    ::setenv("OMA_STORE_DIR", dir.c_str(), 1);
    const auto via_env = ArtifactStore::open("");
    ASSERT_NE(via_env, nullptr);
    EXPECT_EQ(via_env->root(), dir);
    ::unsetenv("OMA_STORE_DIR");
    fs::remove_all(dir);
}

TEST(ArtifactStore, RoundTripHitAndMiss)
{
    const ArtifactStore store(storeRoot("roundtrip"));
    const Fingerprint key = sampleKey();
    const std::string payload("the payload\0with a nul", 22);

    std::string loaded;
    EXPECT_FALSE(store.get(key, loaded));
    store.put(key, payload);
    EXPECT_TRUE(fs::exists(store.entryPath(key)));
    ASSERT_TRUE(store.get(key, loaded));
    EXPECT_EQ(loaded, payload);

    const StoreStatsSnapshot s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.quarantined, 0u);
    fs::remove_all(store.root());
}

TEST(ArtifactStore, TruncatedEntryIsQuarantinedThenRewritable)
{
    const ArtifactStore store(storeRoot("truncated"));
    const Fingerprint key = sampleKey();
    store.put(key, "payload bytes that will get cut short");
    const std::string path = store.entryPath(key);
    fs::resize_file(path, fs::file_size(path) - 5);

    std::string loaded;
    EXPECT_FALSE(store.get(key, loaded));
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));

    // The slot is reusable: a fresh save serves hits again.
    store.put(key, "replacement");
    ASSERT_TRUE(store.get(key, loaded));
    EXPECT_EQ(loaded, "replacement");
    fs::remove_all(store.root());
}

TEST(ArtifactStore, PayloadBitFlipFailsTheChecksum)
{
    const ArtifactStore store(storeRoot("bitflip"));
    const Fingerprint key = sampleKey();
    store.put(key, "sensitive counter bytes");
    const std::string path = store.entryPath(key);
    {
        // Flip one bit of the last payload byte.
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(-1, std::ios::end);
        const char flipped = char('s' ^ 1);
        f.write(&flipped, 1);
    }
    std::string loaded;
    EXPECT_FALSE(store.get(key, loaded));
    EXPECT_EQ(store.stats().quarantined, 1u);
    fs::remove_all(store.root());
}

TEST(ArtifactStore, StoredKeyMismatchIsDetectedNotServed)
{
    // Simulate a 128-bit hash collision: key B's path holds an entry
    // whose canonical key text is A's. The byte compare must refuse
    // it — collisions degrade to detected misses, never aliasing.
    const ArtifactStore store(storeRoot("collision"));
    const Fingerprint a = sampleKey(1), b = sampleKey(2);
    store.put(a, "payload of a");
    fs::create_directories(
        fs::path(store.entryPath(b)).parent_path());
    fs::copy_file(store.entryPath(a), store.entryPath(b));

    std::string loaded;
    EXPECT_FALSE(store.get(b, loaded));
    EXPECT_EQ(store.stats().quarantined, 1u);
    // A's own entry is untouched and still serves.
    ASSERT_TRUE(store.get(a, loaded));
    EXPECT_EQ(loaded, "payload of a");
    fs::remove_all(store.root());
}

TEST(ArtifactStore, GarbageEntryIsAQuarantinedMiss)
{
    // A file at an entry's path that is no store entry at all (no
    // magic, no framing) is a miss, moved aside like any corrupt one.
    const ArtifactStore store(storeRoot("garbage"));
    const Fingerprint key = sampleKey();
    const std::string path = store.entryPath(key);
    fs::create_directories(fs::path(path).parent_path());
    std::ofstream(path, std::ios::binary)
        << "this is not a store entry at all, not even close....";

    std::string loaded;
    EXPECT_FALSE(store.get(key, loaded));
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    fs::remove_all(store.root());
}

TEST(ArtifactStore, LyingEntrySizesAreAQuarantinedMiss)
{
    // An entry that ends 10 bytes into its key, with a payload size
    // that wraps the sum of the two sizes back to those 10 bytes, must
    // read as corrupt without comparing the key past the buffer (the
    // ASan job runs this case).
    const ArtifactStore store(storeRoot("sizes"));
    const Fingerprint key = sampleKey();
    store.put(key, "payload bytes the lying sizes cut off");
    const std::string path = store.entryPath(key);
    fs::resize_file(path, 40 + 10); // header + 10 bytes of the key
    {
        const std::uint64_t sizes[2] = {key.text().size(),
                                        10 - key.text().size()};
        char bytes[sizeof sizes];
        std::memcpy(bytes, sizes, sizeof sizes);
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(16); // past the magic, version and reserved word
        f.write(bytes, sizeof bytes);
    }

    std::string loaded;
    EXPECT_FALSE(store.get(key, loaded));
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    fs::remove_all(store.root());
}

TEST(ArtifactStore, ConcurrentWritersOnOneKeyStayConsistent)
{
    // Both sides of a same-key race write identical bytes; atomic
    // temp-file+rename publication means any interleaving leaves one
    // complete, loadable entry.
    const ArtifactStore store(storeRoot("race"));
    const Fingerprint key = sampleKey();
    const std::string payload(4096, 'x');
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&]() {
            for (int i = 0; i < 8; ++i)
                store.put(key, payload);
        });
    }
    for (std::thread &w : writers)
        w.join();

    std::string loaded;
    ASSERT_TRUE(store.get(key, loaded));
    EXPECT_EQ(loaded, payload);
    EXPECT_EQ(store.stats().writes, 32u);
    EXPECT_EQ(store.stats().quarantined, 0u);
    fs::remove_all(store.root());
}

TEST(ArtifactStore, StatsSnapshotIsConsistentUnderConcurrency)
{
    // Regression for the old per-counter atomics: stats() now takes
    // all four counters under one lock, so a concurrent reader never
    // sees a hit recorded without its matching load having finished
    // (the TSan job runs this suite). Every load here is a verified
    // hit, so hits+misses must always equal completed loads.
    const ArtifactStore store(storeRoot("stats"));
    const Fingerprint key = sampleKey();
    store.put(key, "payload");
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&]() {
            std::string loaded;
            for (int i = 0; i < 16; ++i)
                EXPECT_TRUE(store.get(key, loaded));
        });
    }
    std::uint64_t maxSeen = 0;
    while (maxSeen < 64) {
        const StoreStatsSnapshot snap = store.stats();
        const std::uint64_t total = snap.hits + snap.misses;
        ASSERT_LE(total, 64u);
        ASSERT_GE(total, maxSeen); // Counters never go backward.
        maxSeen = total;
    }
    for (std::thread &r : readers)
        r.join();
    const StoreStatsSnapshot final = store.stats();
    EXPECT_EQ(final.hits, 64u);
    EXPECT_EQ(final.misses, 0u);
    EXPECT_EQ(final.writes, 1u);
    EXPECT_EQ(final.quarantined, 0u);
    fs::remove_all(store.root());
}

TEST(ArtifactStoreDeath, UnusableRootIsFatal)
{
    EXPECT_EXIT(ArtifactStore("/dev/null/oma"),
                testing::ExitedWithCode(1), "cannot create");
}

TEST(ArtifactStoreDeath, FullDiskIsFatalNotSilent)
{
    // /dev/full accepts the open but fails every flush with ENOSPC;
    // a checkpoint that cannot be persisted must die loudly rather
    // than publish a short entry.
    if (!std::ofstream("/dev/full", std::ios::binary).is_open())
        GTEST_SKIP() << "/dev/full not available";
    const std::string payload(1 << 20, 'p');
    EXPECT_EXIT(ArtifactStore::writeEntryFile("/dev/full", "key=1\n",
                                              payload),
                testing::ExitedWithCode(1), "disk full");
}

// ----- payload codecs -----

TEST(StoreCodec, TraceRoundTripIsExact)
{
    RecordedTrace trace;
    trace.recordInvalidation(0x10, 1, false); // leading event
    for (std::uint64_t i = 0; i < 1000; ++i) {
        MemRef ref;
        ref.vaddr = 0x400000 + 4 * i;
        ref.paddr = 0x1000 + 4 * i;
        ref.asid = std::uint32_t(i % 64);
        ref.kind = RefKind(i % 3);
        ref.mode = (i % 5 == 0) ? Mode::Kernel : Mode::User;
        ref.mapped = (i % 7 != 0);
        trace.append(ref);
        if (i == 500)
            trace.recordInvalidation(0x20 + i, 3, true);
    }
    trace.recordInvalidation(0x30, 0, false); // trailing event
    trace.setOtherCpi(0.375);

    RecordedTrace out;
    ASSERT_TRUE(store::decodeTrace(store::encodeTrace(trace), out));
    ASSERT_EQ(out.size(), trace.size());
    EXPECT_EQ(out.otherCpi(), trace.otherCpi());
    ASSERT_EQ(out.events().size(), trace.events().size());
    for (std::size_t e = 0; e < trace.events().size(); ++e) {
        EXPECT_EQ(out.events()[e].index, trace.events()[e].index);
        EXPECT_EQ(out.events()[e].vpn, trace.events()[e].vpn);
        EXPECT_EQ(out.events()[e].asid, trace.events()[e].asid);
        EXPECT_EQ(out.events()[e].global, trace.events()[e].global);
    }
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const MemRef a = trace.at(i), b = out.at(i);
        ASSERT_EQ(a.vaddr, b.vaddr) << i;
        ASSERT_EQ(a.paddr, b.paddr) << i;
        ASSERT_EQ(a.asid, b.asid) << i;
        ASSERT_EQ(a.kind, b.kind) << i;
        ASSERT_EQ(a.mode, b.mode) << i;
        ASSERT_EQ(a.mapped, b.mapped) << i;
    }
}

TEST(StoreCodec, TraceFramingMismatchesAreMisses)
{
    RecordedTrace trace;
    MemRef ref;
    ref.vaddr = ref.paddr = 0x1000;
    for (int i = 0; i < 10; ++i)
        trace.append(ref);
    const std::string payload = store::encodeTrace(trace);

    RecordedTrace out;
    EXPECT_FALSE(store::decodeTrace(
        std::string_view(payload).substr(0, payload.size() - 1), out));
    EXPECT_FALSE(store::decodeTrace(payload + "x", out));
    EXPECT_FALSE(store::decodeTrace("", out));
    EXPECT_TRUE(store::decodeTrace(payload, out));
}

/** Give counter @p field distinct nonzero values counted up from
 * @p next. */
void
fillCounter(std::uint64_t &field, std::uint64_t &next)
{
    field = next++;
}

template <std::size_t N>
void
fillCounter(std::uint64_t (&field)[N], std::uint64_t &next)
{
    for (std::uint64_t &value : field)
        value = next++;
}

/** A double gets -0.0: only raw bits keep the sign of zero. */
void
fillCounter(double &field, std::uint64_t &)
{
    field = -0.0;
}

TEST(StoreCodec, CounterShardsRoundTrip)
{
    // One table over every counter record. Each round-trips with
    // every field distinct (compared as raw bytes), its payload size
    // is pinned, and each framing mismatch (every strict prefix, one
    // byte too many, a wrong shape word) is a miss that leaves the
    // record untouched.
    const auto check = [](const char *name, auto record,
                          std::size_t size) {
        SCOPED_TRACE(name);
        using Stats = decltype(record);
        std::uint64_t next = 1;
        Stats::forEachCounter(
            [&next](const char *, auto &field) { fillCounter(field, next); },
            record);
        const std::string payload = store::encodeCounters(record);
        EXPECT_EQ(payload.size(), size);

        Stats decoded;
        ASSERT_TRUE(store::decodeCounters(payload, decoded));
        Stats::forEachCounter(
            [](const char *field, const auto &want, const auto &got) {
                EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
                    << field;
            },
            record, decoded);

        for (std::size_t n = 0; n < payload.size(); ++n)
            EXPECT_FALSE(store::decodeCounters(
                std::string_view(payload).substr(0, n), decoded))
                << n;
        EXPECT_FALSE(store::decodeCounters(payload + '\0', decoded));
        if constexpr (requires { Stats::shapeWord; }) {
            std::string reshaped = payload;
            reshaped[0] = char(reshaped[0] ^ 1);
            EXPECT_FALSE(store::decodeCounters(reshaped, decoded));
        }
        EXPECT_EQ(store::encodeCounters(decoded), payload);
    };
    check("CacheStats", CacheStats(), 64);
    check("MmuStats", MmuStats(), 104);
    check("VictimStats", VictimStats(), 32);
    check("WriteBufferStats", WriteBufferStats(), 24);
    check("HierarchyStats", HierarchyStats(), 56);
    // The 56-byte machine shard from before it carried the
    // recording's length and non-memory CPI is one of the prefixes.
    check("MachineShard", store::MachineShard(), 72);
}

} // namespace
} // namespace oma
