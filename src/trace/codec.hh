/**
 * @file
 * Delta/varint chunk codec — the byte layer of trace format v3.
 *
 * The packed columnar RecordedTrace (10 B/ref) is already compact in
 * memory; this codec squeezes a serialized recording further by
 * exploiting the structure of the stream itself:
 *
 * * *Per-kind delta prediction.* Instruction fetches are overwhelmingly
 *   sequential and loads/stores cluster around a few working-set
 *   regions — but the three streams interleave, so a naive
 *   previous-reference delta jumps between code and data every other
 *   reference. Each address column therefore keeps one predictor per
 *   RefKind (the last address of the *same kind*), and encodes the
 *   signed difference zigzag/varint, PDATS-style. Sequential fetches
 *   cost one byte each.
 *
 * * *Nibble-packed flags.* The packed flag byte uses four bits (kind,
 *   mode, mapped), so two references share one stored byte.
 *
 * * *Run-length ASIDs.* Address-space identifiers change at context
 *   switches, thousands of references apart; runs collapse to a
 *   (varint length, byte value) pair.
 *
 * Chunks are self-contained: every predictor resets at a chunk
 * boundary, so a decoder can process chunks independently and
 * corruption never propagates past the chunk that suffered it. The
 * decoder is bounds-checked throughout and returns false on any
 * framing violation; callers pair payloads with the fnv1a32()
 * checksum so bit flips that survive framing are still detected.
 *
 * Consumed by the trace payload codec (store::encodeTrace); the
 * differential and fuzz suites live in tests/trace/test_codec_v3.cc.
 */

#ifndef OMA_TRACE_CODEC_HH
#define OMA_TRACE_CODEC_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oma::trace
{

// ----- primitives -----

/** Append @p v as a LEB128 varint (1-10 bytes). */
void putVarint(std::string &out, std::uint64_t v);

/**
 * Decode a LEB128 varint at @p pos, advancing it past the encoding.
 * @retval false on truncation or an over-long (> 10 byte) encoding.
 */
bool getVarint(std::string_view in, std::size_t &pos,
               std::uint64_t &v);

/** Map a signed delta onto the unsigned varint domain. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63);
}

/** Inverse of zigzag(). */
constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

/**
 * 32-bit FNV-1a over @p bytes (the chunk checksum). Passing a prior
 * digest as @p seed continues the hash, so disjoint byte ranges can
 * be summed without concatenating them.
 */
std::uint32_t fnv1a32(std::string_view bytes,
                      std::uint32_t seed = 0x811c9dc5u);

// ----- chunk codec -----

/** Decoded column storage for one chunk. */
struct ChunkColumns
{
    std::vector<std::uint32_t> vaddr;
    std::vector<std::uint32_t> paddr;
    std::vector<std::uint8_t> asid;
    std::vector<std::uint8_t> flags;
};

/**
 * Delta/varint-encode one chunk of packed columns. The columns must
 * all hold @p n elements; flag bytes must fit four bits (the packed
 * trace flag encoding guarantees this).
 */
[[nodiscard]] std::string encodeColumns(const std::uint32_t *vaddr,
                                        const std::uint32_t *paddr,
                                        const std::uint8_t *asid,
                                        const std::uint8_t *flags,
                                        std::size_t n);

/**
 * Decode a chunk of exactly @p n references into @p out.
 * @retval false on any framing violation: truncated or over-long
 * varints, run lengths overshooting the chunk, deltas leaving the
 * 32-bit address domain, a flag nibble encoding an invalid reference
 * kind, a non-zero pad nibble, or trailing bytes.
 */
[[nodiscard]] bool decodeColumns(std::string_view payload,
                                 std::size_t n, ChunkColumns &out);

} // namespace oma::trace

#endif // OMA_TRACE_CODEC_HH
