/**
 * @file
 * Property and fuzz tests for trace format v3's delta/varint byte
 * layer (trace/codec.hh) and the trace payload codec that frames it
 * (store::encodeTrace/decodeTrace). Round trips must be exact
 * for empty, single-reference, maximum-delta and randomized streams;
 * every truncation and every single-bit corruption must either be
 * rejected outright or surface as a changed decode that the framing
 * checksum is guaranteed to catch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "store/codec.hh"
#include "support/rng.hh"
#include "trace/codec.hh"
#include "trace/recorded.hh"

namespace oma
{
namespace
{

MemRef
randomRef(Rng &rng)
{
    MemRef r;
    r.vaddr = rng.next() & 0xffffffff;
    r.paddr = rng.next() & 0x3fffffff;
    r.asid = std::uint32_t(rng.below(64));
    r.kind = static_cast<RefKind>(rng.below(3));
    r.mode = static_cast<Mode>(rng.below(2));
    r.mapped = rng.chance(0.8);
    return r;
}

/** Random packed columns with encodable flag bytes (kind < 3, four
 * bits total — what RecordedTrace::packFlags produces). */
trace::ChunkColumns
randomColumns(Rng &rng, std::size_t n)
{
    trace::ChunkColumns c;
    for (std::size_t i = 0; i < n; ++i) {
        c.vaddr.push_back(std::uint32_t(rng.next()));
        c.paddr.push_back(std::uint32_t(rng.next()));
        // Long ASID runs with occasional switches, like real streams.
        c.asid.push_back(rng.chance(0.01) || c.asid.empty()
                             ? std::uint8_t(rng.below(64))
                             : c.asid.back());
        c.flags.push_back(std::uint8_t(
            rng.below(3) | (rng.chance(0.5) ? 0x4 : 0) |
            (rng.chance(0.5) ? 0x8 : 0)));
    }
    return c;
}

std::string
encode(const trace::ChunkColumns &c)
{
    return trace::encodeColumns(c.vaddr.data(), c.paddr.data(),
                                c.asid.data(), c.flags.data(),
                                c.vaddr.size());
}

void
expectSameColumns(const trace::ChunkColumns &got,
                  const trace::ChunkColumns &want)
{
    EXPECT_EQ(got.vaddr, want.vaddr);
    EXPECT_EQ(got.paddr, want.paddr);
    EXPECT_EQ(got.asid, want.asid);
    EXPECT_EQ(got.flags, want.flags);
}

bool
sameColumns(const trace::ChunkColumns &a, const trace::ChunkColumns &b)
{
    return a.vaddr == b.vaddr && a.paddr == b.paddr &&
        a.asid == b.asid && a.flags == b.flags;
}

/** Field-exact trace equality (size, refs, events, otherCpi bits). */
bool
sameTrace(const RecordedTrace &a, const RecordedTrace &b)
{
    if (a.size() != b.size() ||
        a.events().size() != b.events().size())
        return false;
    const double ac = a.otherCpi(), bc = b.otherCpi();
    if (std::memcmp(&ac, &bc, sizeof ac) != 0)
        return false;
    for (std::size_t e = 0; e < a.events().size(); ++e) {
        const TraceEvent &x = a.events()[e], &y = b.events()[e];
        if (x.index != y.index || x.vpn != y.vpn ||
            x.asid != y.asid || x.global != y.global)
            return false;
    }
    for (std::uint64_t i = 0; i < a.size(); ++i) {
        const MemRef x = a.at(i), y = b.at(i);
        if (x.vaddr != y.vaddr || x.paddr != y.paddr ||
            x.asid != y.asid || x.kind != y.kind || x.mode != y.mode ||
            x.mapped != y.mapped)
            return false;
    }
    return true;
}

// ----- varint / zigzag primitives -----

TEST(CodecV3, VarintRoundTripsEdgeValues)
{
    std::vector<std::uint64_t> values = {
        0, 1, 127, 128, 129, 16383, 16384, 0xffffffffull,
        0x100000000ull, std::numeric_limits<std::uint64_t>::max()};
    for (unsigned shift = 0; shift < 64; ++shift)
        values.push_back(1ull << shift);
    std::string buf;
    for (std::uint64_t v : values)
        trace::putVarint(buf, v);
    std::size_t pos = 0;
    for (std::uint64_t want : values) {
        std::uint64_t got = 0;
        ASSERT_TRUE(trace::getVarint(buf, pos, got));
        EXPECT_EQ(got, want);
    }
    EXPECT_EQ(pos, buf.size());
}

TEST(CodecV3, VarintRejectsTruncationAndOverlongEncodings)
{
    std::string buf;
    trace::putVarint(buf, std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(buf.size(), 10u);
    // Every strict prefix is a truncation.
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
        std::size_t pos = 0;
        std::uint64_t v = 0;
        EXPECT_FALSE(trace::getVarint(
            std::string_view(buf.data(), cut), pos, v));
    }
    // An 11-byte chain of continuation bits can encode nothing.
    const std::string overlong(11, char(0x80));
    std::size_t pos = 0;
    std::uint64_t v = 0;
    EXPECT_FALSE(trace::getVarint(overlong, pos, v));
    // Ten bytes whose top byte carries bits past 2^64.
    std::string wide(9, char(0x80));
    wide.push_back(0x02);
    pos = 0;
    EXPECT_FALSE(trace::getVarint(wide, pos, v));
    // ...while the same shape encoding exactly bit 63 is valid.
    std::string top(9, char(0x80));
    top.push_back(0x01);
    pos = 0;
    ASSERT_TRUE(trace::getVarint(top, pos, v));
    EXPECT_EQ(v, 1ull << 63);
}

TEST(CodecV3, ZigzagRoundTripsTheFullSignedRange)
{
    for (std::int64_t v :
         {std::int64_t(0), std::int64_t(1), std::int64_t(-1),
          std::int64_t(0xffffffffll), std::int64_t(-0xffffffffll),
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max()})
        EXPECT_EQ(trace::unzigzag(trace::zigzag(v)), v);
    // Small magnitudes map to small codes (what makes deltas cheap).
    EXPECT_LT(trace::zigzag(-3), 8u);
}

TEST(CodecV3, ChecksumSeedChainingMatchesConcatenation)
{
    const std::string a = "payload-bytes", b = "event-bytes";
    EXPECT_EQ(trace::fnv1a32(b, trace::fnv1a32(a)),
              trace::fnv1a32(a + b));
    EXPECT_NE(trace::fnv1a32(a), trace::fnv1a32(b));
}

// ----- column codec round trips -----

TEST(CodecV3, ColumnsRoundTripRandomizedSizes)
{
    Rng rng(101);
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(2), std::size_t(255),
                          std::size_t(256), std::size_t(4097),
                          RecordedTrace::chunkRefs}) {
        SCOPED_TRACE(n);
        const trace::ChunkColumns want = randomColumns(rng, n);
        trace::ChunkColumns got;
        ASSERT_TRUE(trace::decodeColumns(encode(want), n, got));
        expectSameColumns(got, want);
    }
}

TEST(CodecV3, ColumnsRoundTripMaxDeltaAlternation)
{
    // Worst-case predictor input: every same-kind delta swings the
    // full 32-bit range, in both directions, for every column.
    trace::ChunkColumns want;
    for (std::size_t i = 0; i < 1024; ++i) {
        const std::uint32_t v = i % 2 ? 0xffffffffu : 0u;
        want.vaddr.push_back(v);
        want.paddr.push_back(~v);
        want.asid.push_back(i % 2 ? 0xff : 0);
        want.flags.push_back(std::uint8_t(i % 3));
    }
    trace::ChunkColumns got;
    ASSERT_TRUE(trace::decodeColumns(encode(want), 1024, got));
    expectSameColumns(got, want);
}

TEST(CodecV3, SequentialStreamsEncodeCompactly)
{
    // The payoff case: sequential fetch addresses and a constant
    // ASID must beat the packed 10 B/ref representation soundly.
    trace::ChunkColumns c;
    for (std::size_t i = 0; i < 8192; ++i) {
        c.vaddr.push_back(std::uint32_t(0x400000 + 4 * i));
        c.paddr.push_back(std::uint32_t(0x10000 + 4 * i));
        c.asid.push_back(7);
        c.flags.push_back(0x8 | std::uint8_t(RefKind::IFetch));
    }
    const std::string payload = encode(c);
    EXPECT_LT(payload.size(), c.vaddr.size() * 3);
    trace::ChunkColumns got;
    ASSERT_TRUE(trace::decodeColumns(payload, c.vaddr.size(), got));
    expectSameColumns(got, c);
}

// ----- column codec corruption -----

TEST(CodecV3, DecodeRejectsEveryTruncation)
{
    Rng rng(103);
    const trace::ChunkColumns want = randomColumns(rng, 257);
    const std::string payload = encode(want);
    trace::ChunkColumns out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        EXPECT_FALSE(trace::decodeColumns(
            std::string_view(payload.data(), cut), 257, out))
            << "prefix " << cut << " of " << payload.size();
    }
}

TEST(CodecV3, DecodeRejectsWrongReferenceCounts)
{
    Rng rng(107);
    const trace::ChunkColumns want = randomColumns(rng, 64);
    const std::string payload = encode(want);
    trace::ChunkColumns out;
    EXPECT_FALSE(trace::decodeColumns(payload, 63, out));
    EXPECT_FALSE(trace::decodeColumns(payload, 65, out));
    EXPECT_FALSE(trace::decodeColumns(payload, 0, out));
    // And a non-empty count against an empty payload.
    EXPECT_FALSE(trace::decodeColumns(std::string_view(), 1, out));
}

TEST(CodecV3, EveryBitFlipIsRejectedOrChangesTheChecksum)
{
    // The codec's own framing need not catch every flip — but any
    // flip it accepts must decode to *different* columns and must
    // change the FNV-1a checksum its framers store next to the
    // payload, so no corruption can reach a consumer unnoticed.
    Rng rng(109);
    const trace::ChunkColumns want = randomColumns(rng, 48);
    const std::string payload = encode(want);
    const std::uint32_t sum = trace::fnv1a32(payload);
    for (std::size_t byte = 0; byte < payload.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string mutated = payload;
            mutated[byte] = char(mutated[byte] ^ (1u << bit));
            EXPECT_NE(trace::fnv1a32(mutated), sum);
            trace::ChunkColumns out;
            if (trace::decodeColumns(mutated, 48, out)) {
                EXPECT_FALSE(sameColumns(out, want))
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

TEST(CodecV3, DecodeSurvivesRandomGarbage)
{
    // Pure fuzz: arbitrary bytes must never crash or over-read
    // (ASan/UBSan job); acceptance is not required, only safety.
    Rng rng(113);
    trace::ChunkColumns out;
    for (int i = 0; i < 2000; ++i) {
        std::string garbage(rng.below(200), '\0');
        for (char &ch : garbage)
            ch = char(rng.next());
        (void)trace::decodeColumns(garbage, 1 + rng.below(128), out);
    }
}

// ----- store trace codec framing -----

RecordedTrace
eventedTrace(std::uint64_t seed, std::uint64_t n)
{
    Rng rng(seed);
    RecordedTrace trace;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (rng.chance(0.01))
            trace.recordInvalidation(rng.below(1 << 20),
                                     std::uint32_t(rng.below(64)),
                                     rng.chance(0.2));
        trace.append(randomRef(rng));
    }
    trace.setOtherCpi(0.375);
    return trace;
}

TEST(CodecV3, StoreTraceRoundTripsExactly)
{
    for (std::uint64_t n :
         {std::uint64_t(0), std::uint64_t(1), std::uint64_t(1000),
          std::uint64_t(RecordedTrace::chunkRefs + 137)}) {
        SCOPED_TRACE(n);
        const RecordedTrace want = eventedTrace(5 + n, n);
        RecordedTrace got;
        ASSERT_TRUE(
            store::decodeTrace(store::encodeTrace(want), got));
        EXPECT_TRUE(sameTrace(got, want));
    }
}

TEST(CodecV3, StoreTraceRejectsEveryTruncation)
{
    const RecordedTrace want = eventedTrace(7, 500);
    const std::string payload = store::encodeTrace(want);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        RecordedTrace got;
        EXPECT_FALSE(store::decodeTrace(
            std::string_view(payload.data(), cut), got))
            << "prefix " << cut << " of " << payload.size();
    }
}

TEST(CodecV3, StoreTraceBitFlipsNeverDecodeToTheSameTrace)
{
    // decodeTrace's internal checksums catch flips in the chunk and
    // event regions; flips in unchecksummed header fields (size,
    // otherCpi) decode to a *different* trace, which the artifact
    // store's whole-payload checksum rejects before decodeTrace ever
    // runs. Either way no flip may round-trip silently.
    const RecordedTrace want = eventedTrace(11, 300);
    const std::string payload = store::encodeTrace(want);
    for (std::size_t byte = 0; byte < payload.size(); ++byte) {
        for (unsigned bit : {0u, 3u, 7u}) {
            std::string mutated = payload;
            mutated[byte] = char(mutated[byte] ^ (1u << bit));
            RecordedTrace got;
            if (store::decodeTrace(mutated, got)) {
                EXPECT_FALSE(sameTrace(got, want))
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

} // namespace
} // namespace oma
