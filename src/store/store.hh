/**
 * @file
 * Content-addressed on-disk artifact store.
 *
 * Re-recording the same workload/OS reference stream on every run is
 * the dominant cost of a cold sweep, and a killed long sweep used to
 * lose every completed replay shard. The store removes both costs:
 * any artifact whose complete provenance fits in a Fingerprint (a
 * recorded trace, one replay shard's counters) can be saved under
 * that fingerprint and transparently reloaded by a later run with the
 * identical configuration.
 *
 * Design rules, in order of importance:
 *
 * * *Correctness over reuse.* Every entry carries its full canonical
 *   key text and a payload checksum. A load whose stored key text
 *   does not byte-match the requested key (hash collision), whose
 *   checksum fails, or whose framing is truncated is quarantined
 *   (renamed to `<entry>.corrupt`) and reported as a miss, so the
 *   caller falls back to live simulation — never to wrong data.
 *
 * * *Atomic publication.* Writers stream into a private temp file in
 *   the store directory and rename() it over the final path, so a
 *   reader (or a concurrent writer racing on the same key) only ever
 *   observes complete entries. Both sides of a same-key race write
 *   the same bytes, so last-rename-wins is harmless.
 *
 * * *Off by default.* A store only exists when RunConfig::storeDir or
 *   the OMA_STORE_DIR environment variable names a directory; open()
 *   returns nullptr otherwise and every engine falls back to the
 *   live path.
 *
 * Entries are per-machine caches, not an interchange format: payload
 * integers are stored in host byte order. The trace-format version
 * and a store schema version are part of every fingerprint, so
 * format changes age old entries into misses instead of misreads.
 */

#ifndef OMA_STORE_STORE_HH
#define OMA_STORE_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "support/fingerprint.hh"
#include "support/sync.hh"

namespace oma
{

/** Running event counters of one ArtifactStore instance. */
struct StoreStatsSnapshot
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;
    std::uint64_t quarantined = 0;
};

/** One in-flight computation's shared state (InflightTable detail;
 * every field is guarded by the owning table's mutex). */
struct InflightEntry
{
    bool done = false;
    bool abandoned = false;
    std::string payload;
};

/**
 * In-process coalescing of concurrent identical computations.
 *
 * The on-disk store deduplicates *completed* work across processes;
 * this table deduplicates *in-flight* work across threads: the first
 * thread to join() a key becomes the leader and computes, every
 * concurrent joiner blocks until the leader publishes and then
 * carries the identical payload away — so N simultaneous identical
 * queries cost one simulation (`serve/dedup_hits` counts the
 * followers). Keys are the same canonical Fingerprints the store
 * uses; both sides compare full key text, never just the hash.
 *
 * Concurrency contract (docs/STATIC_ANALYSIS.md): the single mutex
 * (rank lockrank::storeInflight) guards the key map and is held only
 * for map bookkeeping and the publication wait — never while the
 * leader computes or touches the store, so leaders of distinct keys
 * proceed in parallel. A leader that unwinds without publishing
 * abandons the entry and one waiting follower retakes leadership,
 * so an error path never strands waiters.
 */
class InflightTable
{
  public:
    /**
     * RAII claim on one key's computation. Exactly one live lease
     * per key is the leader; it must publish() its payload (followers
     * then observe it) or let the lease unwind, which wakes the
     * followers to retake leadership.
     */
    class Lease
    {
      public:
        Lease(Lease &&other) noexcept { *this = std::move(other); }
        Lease &
        operator=(Lease &&other) noexcept
        {
            _table = other._table;
            _key = std::move(other._key);
            _entry = std::move(other._entry);
            _leader = other._leader;
            _published = other._published;
            other._table = nullptr;
            return *this;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease();

        /** True when this caller must compute (and then publish). */
        [[nodiscard]] bool leader() const { return _leader; }

        /** The leader's published payload; followers only. */
        [[nodiscard]] const std::string &payload() const;

        /** Leader only: hand @p payload to every waiting follower
         * and retire the key (later joiners start fresh — with a
         * store in front they hit warm instead). */
        void publish(std::string payload);

      private:
        friend class InflightTable;
        Lease() = default;

        InflightTable *_table = nullptr;
        std::string _key;
        std::shared_ptr<InflightEntry> _entry;
        bool _leader = false;
        bool _published = false;
    };

    /**
     * Join the computation keyed by @p key: returns a leader lease
     * immediately when no identical computation is running, else
     * blocks until the running one publishes (or abandons) and
     * returns a follower lease carrying the published payload.
     */
    [[nodiscard]] Lease join(const Fingerprint &key);

  private:
    friend class Lease;

    /** Guards the in-flight key map; held for bookkeeping and the
     * publication wait only, never across compute or store I/O. */
    mutable Mutex _mutex{OMA_LOCK_RANK(lockrank::storeInflight)};
    CondVar _published;
    std::map<std::string, std::shared_ptr<InflightEntry>>
        _inflight OMA_GUARDED_BY(_mutex);
};

/** A content-addressed artifact cache rooted at one directory. */
class ArtifactStore
{
  public:
    /** Version of the on-disk entry framing; fingerprinted into every
     * key, so bumping it invalidates all old entries at once. */
    static constexpr std::uint32_t formatVersion = 1;

    /** Open the store rooted at @p root, creating directories as
     * needed (fatal when the root cannot be created). */
    explicit ArtifactStore(std::string root);

    /**
     * Store-or-nothing policy knob: open the store at
     * @p configured_dir when non-empty, else at $OMA_STORE_DIR when
     * set and non-empty, else return nullptr (store disabled).
     */
    [[nodiscard]] static std::unique_ptr<ArtifactStore>
    open(const std::string &configured_dir);

    /**
     * Fetch the payload stored under @p key into @p payload.
     *
     * @retval true on a verified hit (key text matched byte-for-byte
     *         and the payload checksum held).
     * @retval false on a miss — including a corrupt or mismatched
     *         entry, which is quarantined first.
     */
    [[nodiscard]] bool get(const Fingerprint &key,
                           std::string &payload) const;

    /** Publish @p payload under @p key (atomic temp-file+rename). */
    void put(const Fingerprint &key, std::string_view payload) const;

    /** Absolute path an entry for @p key lives at. */
    [[nodiscard]] std::string entryPath(const Fingerprint &key) const;

    [[nodiscard]] const std::string &root() const { return _root; }

    /** Consistent snapshot of the hit/miss/write/quarantine
     * counters: all four are read under one lock, so concurrent
     * readers never observe a torn cross-counter state. */
    [[nodiscard]] StoreStatsSnapshot
    stats() const
    {
        LockGuard lock(_statsMutex);
        return _stats;
    }

    /**
     * Write one complete entry file (header + key text + payload) to
     * @p path, fatal on any I/O failure — the building block put()
     * aims at a temp file. Trace files (store/codec.hh) are entry
     * files too, and the disk-full path is directly death-testable
     * (tests/store/test_store.cc, /dev/full).
     */
    static void writeEntryFile(const std::string &path,
                               std::string_view key_text,
                               std::string_view payload);

    /** Outcome of readEntryFile(). */
    enum class EntryRead
    {
        Missing, //!< The file cannot be opened.
        Corrupt, //!< Bad framing, other key text or a failed checksum.
        Ok
    };

    /**
     * Read the entry file at @p path and verify it holds @p key_text:
     * the inverse of writeEntryFile() and the whole check behind
     * get(), which adds only quarantine and the counters. Sets
     * @p payload on Ok only.
     */
    [[nodiscard]] static EntryRead readEntryFile(const std::string &path,
                                                 std::string_view key_text,
                                                 std::string &payload);

  private:
    /** Move a bad entry aside so it cannot be re-read, then count it. */
    void quarantine(const std::string &path) const;

    /** Add @p delta to counter member @p counter (e.g.
     * `&StoreStatsSnapshot::hits`) under the stats lock. */
    void bump(std::uint64_t StoreStatsSnapshot::*counter,
              std::uint64_t delta = 1) const;

    const std::string _root; //!< Immutable after construction.

    /** Protects the event counters; never held across I/O or any
     * call out of the store (rank table in sync.hh). */
    mutable Mutex _statsMutex{OMA_LOCK_RANK(lockrank::storeStats)};
    mutable StoreStatsSnapshot _stats OMA_GUARDED_BY(_statsMutex);
};

} // namespace oma

#endif // OMA_STORE_STORE_HH
