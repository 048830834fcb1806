/**
 * @file
 * Validation and pretty-printing of cache/TLB geometries.
 */

#include "area/geometry.hh"

#include "support/bits.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace oma
{

std::string
CacheGeometry::check() const
{
    if (!isPowerOfTwo(capacityBytes))
        return "cache capacity must be a power of two: " + describe();
    if (!isPowerOfTwo(lineBytes) || lineBytes < bytesPerWord)
        return "cache line must be a power-of-two number of words: " +
            describe();
    if (!isPowerOfTwo(assoc))
        return "cache associativity must be a power of two: " +
            describe();
    // Divide rather than multiply: lineBytes * assoc can wrap to 0
    // (2^63 ways of 32-byte lines) and pass a zero-set geometry.
    if (assoc > capacityBytes / lineBytes)
        return "cache needs at least one set: " + describe();
    return {};
}

void
CacheGeometry::validate() const
{
    const std::string error = check();
    fatalIf(!error.empty(), error);
}

std::string
CacheGeometry::describe() const
{
    return fmtKBytes(capacityBytes) + " " + std::to_string(lineWords()) +
        "-word " + std::to_string(assoc) + "-way";
}

std::string
TlbGeometry::check() const
{
    if (!isPowerOfTwo(entries))
        return "TLB entries must be a power of two: " + describe();
    if (!fullyAssociative()) {
        if (!isPowerOfTwo(assoc))
            return "TLB associativity must be a power of two: " +
                describe();
        if (entries < assoc)
            return "TLB needs at least one set: " + describe();
    }
    return {};
}

void
TlbGeometry::validate() const
{
    const std::string error = check();
    fatalIf(!error.empty(), error);
}

std::string
TlbGeometry::describe() const
{
    return std::to_string(entries) + "-entry " +
        (fullyAssociative() ? std::string("full")
                            : std::to_string(assoc) + "-way");
}

} // namespace oma
