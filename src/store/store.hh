/**
 * @file
 * Content-addressed on-disk artifact store.
 *
 * Replaying a recording through every component is the dominant cost
 * of a cold question, and a killed long sweep used to lose every
 * completed replay shard. The store removes both costs: any artifact
 * whose complete provenance fits in a Fingerprint (one replay shard's
 * counters, one encoded answer) can be saved under that fingerprint
 * and transparently reloaded by a later run with the identical
 * configuration. Recordings are not stored: recording one again
 * costs what fetching and decoding it would.
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
 *   the same bytes, so last-rename-wins is harmless. That is also why
 *   the store takes no lease on a key being computed: two threads
 *   that miss on one key both compute and both put. Duplicate
 *   requests coalesce before that, in QueryEngine::answerBatch's
 *   per-batch key groups.
 *
 * * *Off by default.* A store only exists when RunConfig::storeDir or
 *   the OMA_STORE_DIR environment variable names a directory; open()
 *   returns nullptr otherwise and every engine falls back to the
 *   live path.
 *
 * Entries are per-machine caches, not an interchange format: payload
 * integers are stored in host byte order. A store schema version is
 * part of every fingerprint (and the trace-format version of every
 * shard's and answer's), so format changes age old entries into
 * misses instead of misreads.
 */

#ifndef OMA_STORE_STORE_HH
#define OMA_STORE_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

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
     * aims at a temp file, public so the disk-full path is directly
     * death-testable (tests/store/test_store.cc, /dev/full).
     */
    static void writeEntryFile(const std::string &path,
                               std::string_view key_text,
                               std::string_view payload);

  private:
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
