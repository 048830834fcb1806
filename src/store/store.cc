/**
 * @file
 * Implementation of the content-addressed artifact store.
 */

#include "store/store.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include <unistd.h>

#include "support/logging.hh"

namespace oma
{

namespace
{

constexpr std::uint64_t entryMagic = 0x45524f5453414d4fULL; // "OMASTORE"

/** FNV-1a over the payload; cheap, and mismatches on any bit flip. */
std::uint64_t
payloadChecksum(std::string_view payload)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : payload) {
        h ^= std::uint64_t(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
appendU32(std::string &out, std::uint32_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
}

bool
readU32(std::string_view in, std::size_t &pos, std::uint32_t &v)
{
    if (in.size() - pos < sizeof v)
        return false;
    std::memcpy(&v, in.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
}

bool
readU64(std::string_view in, std::size_t &pos, std::uint64_t &v)
{
    if (in.size() - pos < sizeof v)
        return false;
    std::memcpy(&v, in.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
}

/** Fixed-size header preceding key text and payload in every entry. */
std::string
entryHeader(std::string_view key_text, std::string_view payload)
{
    std::string out;
    appendU64(out, entryMagic);
    appendU32(out, ArtifactStore::formatVersion);
    appendU32(out, 0); // reserved
    appendU64(out, key_text.size());
    appendU64(out, payload.size());
    appendU64(out, payloadChecksum(payload));
    return out;
}

} // namespace

ArtifactStore::ArtifactStore(std::string root) : _root(std::move(root))
{
    std::error_code ec;
    std::filesystem::create_directories(_root + "/objects", ec);
    fatalIf(bool(ec), "artifact store: cannot create '" + _root +
                          "/objects': " + ec.message());
}

std::unique_ptr<ArtifactStore>
ArtifactStore::open(const std::string &configured_dir)
{
    std::string root = configured_dir;
    if (root.empty()) {
        const char *env = std::getenv("OMA_STORE_DIR");
        if (env != nullptr)
            root = env;
    }
    if (root.empty())
        return nullptr;
    return std::make_unique<ArtifactStore>(root);
}

std::string
ArtifactStore::entryPath(const Fingerprint &key) const
{
    // Two-level fan-out (git-object style) keeps directory sizes
    // sane for large stores.
    const std::string hex = key.hex();
    return _root + "/objects/" + hex.substr(0, 2) + "/" + hex + ".bin";
}

bool
ArtifactStore::get(const Fingerprint &key, std::string &payload) const
{
    const std::string path = entryPath(key);
    switch (readEntryFile(path, key.text(), payload)) {
    case EntryRead::Ok:
        bump(&StoreStatsSnapshot::hits);
        return true;
    case EntryRead::Corrupt:
        quarantine(path);
        break;
    case EntryRead::Missing:
        break;
    }
    bump(&StoreStatsSnapshot::misses);
    return false;
}

ArtifactStore::EntryRead
ArtifactStore::readEntryFile(const std::string &path,
                             std::string_view key_text,
                             std::string &payload)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return EntryRead::Missing;
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();

    std::size_t pos = 0;
    std::uint64_t magic = 0, key_size = 0, payload_size = 0,
                  checksum = 0;
    std::uint32_t version = 0, reserved = 0;
    if (!readU64(raw, pos, magic) || magic != entryMagic ||
        !readU32(raw, pos, version) || version != formatVersion ||
        !readU32(raw, pos, reserved) || !readU64(raw, pos, key_size) ||
        !readU64(raw, pos, payload_size) ||
        !readU64(raw, pos, checksum)) {
        return EntryRead::Corrupt;
    }
    // Compared without adding the two sizes, which a hostile file
    // could pick to wrap around.
    const std::size_t rest = raw.size() - pos;
    if (key_size > rest || payload_size != rest - key_size)
        return EntryRead::Corrupt;
    const std::string_view stored_key(raw.data() + pos, key_size);
    const std::string_view stored_payload(raw.data() + pos + key_size,
                                          payload_size);
    // Byte-compare the full canonical key text: even a fingerprint
    // hash collision degrades to a detected miss here.
    if (stored_key != key_text)
        return EntryRead::Corrupt;
    if (payloadChecksum(stored_payload) != checksum)
        return EntryRead::Corrupt;

    payload.assign(stored_payload);
    return EntryRead::Ok;
}

void
ArtifactStore::put(const Fingerprint &key,
                   std::string_view payload) const
{
    const std::string path = entryPath(key);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    fatalIf(bool(ec), "artifact store: cannot create directory for '" +
                          path + "': " + ec.message());

    // Unique temp name per writer (pid + process-wide counter), so
    // concurrent writers racing on one key never share a temp file;
    // rename() publishes atomically and last-rename-wins is harmless
    // because both race sides produce identical bytes.
    // oma-lint: allow(shared-state): atomic nonce that only
    // uniquifies temp-file names; it never reaches any result.
    static std::atomic<std::uint64_t> tmpCounter{0};
    const std::string tmp = path + ".tmp." +
        std::to_string(::getpid()) + "." +
        std::to_string(tmpCounter.fetch_add(1));

    writeEntryFile(tmp, key.text(), payload);

    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        fatal("artifact store: cannot publish '" + path +
              "': " + ec.message());
    }
    bump(&StoreStatsSnapshot::writes);
}

void
ArtifactStore::writeEntryFile(const std::string &path,
                              std::string_view key_text,
                              std::string_view payload)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatalIf(!out.is_open(),
            "artifact store: cannot open '" + path + "' for writing");
    const std::string header = entryHeader(key_text, payload);
    out.write(header.data(), std::streamsize(header.size()));
    out.write(key_text.data(), std::streamsize(key_text.size()));
    out.write(payload.data(), std::streamsize(payload.size()));
    out.flush();
    fatalIf(!out.good(), "artifact store: short write to '" + path +
                             "' (disk full?)");
    out.close();
    fatalIf(!out.good(), "artifact store: cannot close '" + path +
                             "' (disk full?)");
}

void
ArtifactStore::bump(std::uint64_t StoreStatsSnapshot::*counter,
                    std::uint64_t delta) const
{
    LockGuard lock(_statsMutex);
    _stats.*counter += delta;
}

void
ArtifactStore::quarantine(const std::string &path) const
{
    std::error_code ec;
    std::filesystem::rename(path, path + ".corrupt", ec);
    if (ec) {
        // Cannot move it aside (e.g. read-only medium): drop it so a
        // bad entry is never served twice.
        std::filesystem::remove(path, ec);
    }
    bump(&StoreStatsSnapshot::quarantined);
    warn("artifact store: quarantined corrupt entry '" + path + "'");
}

} // namespace oma
