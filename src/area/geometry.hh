/**
 * @file
 * Geometric descriptions of caches and TLBs shared by the area model,
 * the simulators and the design-space allocator.
 */

#ifndef OMA_AREA_GEOMETRY_HH
#define OMA_AREA_GEOMETRY_HH

#include <cstdint>
#include <string>

#include "support/fingerprint.hh"

namespace oma
{

/** Bytes per machine word (the paper reports line sizes in 4-byte words). */
constexpr std::uint64_t bytesPerWord = 4;

/**
 * Shape of a set-associative cache. All quantities must be powers of
 * two; use validate() after construction.
 */
struct CacheGeometry
{
    std::uint64_t capacityBytes = 8192;
    std::uint64_t lineBytes = 16;
    std::uint64_t assoc = 1;

    CacheGeometry() = default;
    CacheGeometry(std::uint64_t capacity, std::uint64_t line,
                  std::uint64_t ways)
        : capacityBytes(capacity), lineBytes(line), assoc(ways)
    {}

    /** Convenience constructor taking the line size in 4-byte words. */
    static CacheGeometry
    fromWords(std::uint64_t capacity, std::uint64_t line_words,
              std::uint64_t ways)
    {
        return CacheGeometry(capacity, line_words * bytesPerWord, ways);
    }

    std::uint64_t lineWords() const { return lineBytes / bytesPerWord; }

    std::uint64_t
    numLines() const
    {
        return capacityBytes / lineBytes;
    }

    std::uint64_t
    numSets() const
    {
        return numLines() / assoc;
    }

    /** Empty when the geometry is realizable, else why it is not. */
    [[nodiscard]] std::string check() const;

    /** Abort via fatal() with check()'s text when the geometry is not
     * realizable. */
    void validate() const;

    /** "16-KB 8-word 2-way" style description. */
    std::string describe() const;

    bool
    operator==(const CacheGeometry &other) const
    {
        return capacityBytes == other.capacityBytes &&
            lineBytes == other.lineBytes && assoc == other.assoc;
    }

    /** Append every field to an artifact-store fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.u64("cache_geom.capacity_bytes", capacityBytes);
        fp.u64("cache_geom.line_bytes", lineBytes);
        fp.u64("cache_geom.assoc", assoc);
    }
};

/**
 * Shape of a TLB. @c assoc == 0 denotes a fully-associative (CAM)
 * organization, matching the paper's "full" entries in Table 1.
 */
struct TlbGeometry
{
    std::uint64_t entries = 64;
    std::uint64_t assoc = 0; //!< 0 = fully associative.

    TlbGeometry() = default;
    TlbGeometry(std::uint64_t n, std::uint64_t ways)
        : entries(n), assoc(ways)
    {}

    /** A fully-associative TLB with @p n entries. */
    static TlbGeometry
    fullyAssoc(std::uint64_t n)
    {
        return TlbGeometry(n, 0);
    }

    bool fullyAssociative() const { return assoc == 0; }

    std::uint64_t
    ways() const
    {
        return fullyAssociative() ? entries : assoc;
    }

    std::uint64_t
    numSets() const
    {
        return fullyAssociative() ? 1 : entries / assoc;
    }

    /** Empty when the geometry is realizable, else why it is not. */
    [[nodiscard]] std::string check() const;

    /** Abort via fatal() with check()'s text when the geometry is not
     * realizable. */
    void validate() const;

    /** "512-entry 8-way" / "64-entry full" style description. */
    std::string describe() const;

    bool
    operator==(const TlbGeometry &other) const
    {
        return entries == other.entries && assoc == other.assoc;
    }

    /** Append every field to an artifact-store fingerprint. */
    void
    fingerprint(Fingerprint &fp) const
    {
        fp.u64("tlb_geom.entries", entries);
        fp.u64("tlb_geom.assoc", assoc);
    }
};

} // namespace oma

#endif // OMA_AREA_GEOMETRY_HH
