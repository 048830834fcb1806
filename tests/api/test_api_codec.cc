/**
 * @file
 * AllocationRequest / AllocationResponse wire-codec tests.
 *
 * The request codec is the daemon's trust boundary: a line either
 * decodes into exactly one AllocationRequest or is refused. These
 * tests pin the round-trip, the strict-schema refusals (unknown
 * field, any missing field, truncation anywhere, garbage) and the
 * byte-stability that makes warm/cold/deduplicated answers
 * comparable bitwise.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/request.hh"
#include "support/json.hh"

namespace oma::api
{
namespace
{

/** A request exercising every non-default field. */
AllocationRequest
sampleRequest()
{
    AllocationRequest request;
    request.workloads = {BenchmarkId::Mpeg, BenchmarkId::VideoPlay};
    request.os = OsKind::Ultrix;
    request.references = 123456789012345ULL;
    request.seed = 18446744073709551615ULL;
    request.space.victimEntries = {0, 4};
    request.space.wbEntries = {1, 4};
    request.space.l2KBytes = {0, 128};
    request.maxCacheWays = 2;
    request.budgetRbe = 125000.5;
    request.strategy = Strategy::Annealing;
    request.annealing.seed = 7;
    request.annealing.chains = 3;
    request.annealing.iterations = 500;
    request.annealing.initialTemp = 2.5;
    request.annealing.finalTemp = 0.01;
    request.topK = 0;
    request.threads = 4;
    return request;
}

TEST(ApiCodec, RequestRoundTripsFieldByField)
{
    const AllocationRequest in = sampleRequest();
    const std::string wire = encodeRequest(in);

    AllocationRequest out;
    std::string error;
    ASSERT_TRUE(decodeRequest(wire, out, error)) << error;

    EXPECT_EQ(out.workloads, in.workloads);
    EXPECT_EQ(out.os, in.os);
    EXPECT_EQ(out.references, in.references);
    EXPECT_EQ(out.seed, in.seed);
    EXPECT_EQ(out.space.tlbEntries, in.space.tlbEntries);
    EXPECT_EQ(out.space.tlbWays, in.space.tlbWays);
    EXPECT_EQ(out.space.tlbFullAssocMax, in.space.tlbFullAssocMax);
    EXPECT_EQ(out.space.cacheKBytes, in.space.cacheKBytes);
    EXPECT_EQ(out.space.lineWords, in.space.lineWords);
    EXPECT_EQ(out.space.cacheWays, in.space.cacheWays);
    EXPECT_EQ(out.space.victimEntries, in.space.victimEntries);
    EXPECT_EQ(out.space.victimLineWords, in.space.victimLineWords);
    EXPECT_EQ(out.space.wbEntries, in.space.wbEntries);
    EXPECT_EQ(out.space.wbDrainCycles, in.space.wbDrainCycles);
    EXPECT_EQ(out.space.l2KBytes, in.space.l2KBytes);
    EXPECT_EQ(out.space.l2LineWords, in.space.l2LineWords);
    EXPECT_EQ(out.space.l2Ways, in.space.l2Ways);
    EXPECT_EQ(out.space.hierL1LineWords, in.space.hierL1LineWords);
    EXPECT_EQ(out.space.hierL1Ways, in.space.hierL1Ways);
    EXPECT_EQ(out.maxCacheWays, in.maxCacheWays);
    EXPECT_DOUBLE_EQ(out.budgetRbe, in.budgetRbe);
    EXPECT_EQ(out.strategy, in.strategy);
    EXPECT_EQ(out.annealing.seed, in.annealing.seed);
    EXPECT_EQ(out.annealing.chains, in.annealing.chains);
    EXPECT_EQ(out.annealing.iterations, in.annealing.iterations);
    EXPECT_DOUBLE_EQ(out.annealing.initialTemp,
                     in.annealing.initialTemp);
    EXPECT_DOUBLE_EQ(out.annealing.finalTemp, in.annealing.finalTemp);
    EXPECT_EQ(out.topK, in.topK);
    EXPECT_EQ(out.threads, in.threads);

    // Byte-stable: re-encoding the decoded request reproduces the
    // wire line exactly.
    EXPECT_EQ(encodeRequest(out), wire);
    // NDJSON-safe: one line, no embedded newlines.
    EXPECT_EQ(wire.find('\n'), std::string::npos);
}

TEST(ApiCodec, RequestRejectsUnknownFields)
{
    // Splice an extra member into an otherwise valid request at the
    // top level, inside `space`, and inside `annealing`.
    const std::string wire = encodeRequest(AllocationRequest());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(wire, doc, error)) << error;

    {
        JsonValue mutated = doc;
        JsonValue extra;
        extra.kind = JsonValue::Kind::Bool;
        extra.boolean = true;
        mutated.object.emplace_back("surprise", extra);
        AllocationRequest out;
        EXPECT_FALSE(decodeRequest(writeJson(mutated), out, error));
        EXPECT_NE(error.find("surprise"), std::string::npos) << error;
    }
    for (const char *nested : {"space", "annealing"}) {
        JsonValue mutated = doc;
        for (auto &member : mutated.object) {
            if (member.first == nested) {
                JsonValue extra;
                extra.kind = JsonValue::Kind::Number;
                extra.number = "1";
                member.second.object.emplace_back("surprise", extra);
            }
        }
        AllocationRequest out;
        EXPECT_FALSE(decodeRequest(writeJson(mutated), out, error))
            << nested;
        EXPECT_NE(error.find("surprise"), std::string::npos) << error;
    }
}

TEST(ApiCodec, RequestRejectsEveryMissingField)
{
    const std::string wire = encodeRequest(AllocationRequest());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(wire, doc, error)) << error;

    // Drop each top-level member in turn: all fields are required.
    for (std::size_t i = 0; i < doc.object.size(); ++i) {
        JsonValue mutated = doc;
        const std::string dropped = mutated.object[i].first;
        mutated.object.erase(mutated.object.begin() +
                             std::ptrdiff_t(i));
        AllocationRequest out;
        EXPECT_FALSE(decodeRequest(writeJson(mutated), out, error))
            << "decoded without required field " << dropped;
    }
}

TEST(ApiCodec, RequestRejectsTruncationAnywhere)
{
    const std::string wire = encodeRequest(sampleRequest());
    AllocationRequest out;
    std::string error;
    for (std::size_t len = 0; len < wire.size(); ++len) {
        EXPECT_FALSE(
            decodeRequest(wire.substr(0, len), out, error))
            << "decoded a " << len << "-byte prefix";
    }
}

TEST(ApiCodec, RequestRejectsGarbageAndWrongSchema)
{
    AllocationRequest out;
    std::string error;
    EXPECT_FALSE(decodeRequest("", out, error));
    EXPECT_FALSE(decodeRequest("hello", out, error));
    EXPECT_FALSE(decodeRequest("{}", out, error));
    EXPECT_FALSE(decodeRequest("[1,2,3]", out, error));
    EXPECT_FALSE(decodeRequest(
        "{\"schema\":\"oma-allocation-request-v999\"}", out, error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;

    // A valid line with one value of the wrong kind.
    std::string wire = encodeRequest(AllocationRequest());
    const std::string needle = "\"references\":3000000";
    const std::size_t at = wire.find(needle);
    ASSERT_NE(at, std::string::npos);
    wire.replace(at, needle.size(), "\"references\":\"lots\"");
    EXPECT_FALSE(decodeRequest(wire, out, error));
    EXPECT_NE(error.find("references"), std::string::npos) << error;
}

TEST(ApiCodec, ResponseRoundTripsAndStaysByteStable)
{
    AllocationResponse in;
    in.strategy = Strategy::Annealing;
    in.inBudget = 17;
    in.candidates = 1200;
    in.evaluations = 4321;
    in.prunedSubspaces = 9;
    in.baseCpi = 1.25;
    in.wbCpi = 0.0625;
    in.otherCpi = 0.5;
    Allocation a;
    a.rank = 1;
    a.tlb = TlbGeometry::fullyAssoc(64);
    a.icache = CacheGeometry::fromWords(8 * 1024, 4, 1);
    a.dcache = CacheGeometry::fromWords(4 * 1024, 4, 2);
    a.areaRbe = 249000.25;
    a.cpi = 1.75;
    a.tlbCpi = 0.125;
    a.icacheCpi = 0.25;
    a.dcacheCpi = 0.375;
    a.victimEntries = 4;
    a.wbEntries = 2;
    a.hasL2 = true;
    a.unified = false;
    a.l2 = CacheGeometry::fromWords(128 * 1024, 8, 1);
    a.hierarchyCpi = 1.5;
    a.wbCpi = 0.03125;
    in.allocations = {a};

    const std::string wire = encodeResponse(in);
    AllocationResponse out;
    std::string error;
    ASSERT_TRUE(decodeResponse(wire, out, error)) << error;

    EXPECT_EQ(out.strategy, in.strategy);
    EXPECT_EQ(out.inBudget, in.inBudget);
    EXPECT_EQ(out.candidates, in.candidates);
    EXPECT_EQ(out.evaluations, in.evaluations);
    EXPECT_EQ(out.prunedSubspaces, in.prunedSubspaces);
    EXPECT_DOUBLE_EQ(out.baseCpi, in.baseCpi);
    ASSERT_EQ(out.allocations.size(), 1u);
    const Allocation &b = out.allocations.front();
    EXPECT_EQ(b.rank, a.rank);
    EXPECT_EQ(b.tlb.entries, a.tlb.entries);
    EXPECT_EQ(b.icache.capacityBytes, a.icache.capacityBytes);
    EXPECT_EQ(b.dcache.assoc, a.dcache.assoc);
    EXPECT_DOUBLE_EQ(b.areaRbe, a.areaRbe);
    EXPECT_EQ(b.victimEntries, a.victimEntries);
    EXPECT_EQ(b.wbEntries, a.wbEntries);
    EXPECT_TRUE(b.hasL2);
    EXPECT_FALSE(b.unified);
    EXPECT_EQ(b.l2.capacityBytes, a.l2.capacityBytes);
    EXPECT_DOUBLE_EQ(b.hierarchyCpi, a.hierarchyCpi);
    EXPECT_DOUBLE_EQ(b.wbCpi, a.wbCpi);

    // decode(encode(x)) re-encodes to identical bytes, the property
    // the bitwise cold==warm==dedup comparison rests on.
    EXPECT_EQ(encodeResponse(out), wire);
}

TEST(ApiCodec, ResponseRejectsUnknownAndMissingFields)
{
    const std::string wire = encodeResponse(AllocationResponse());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(wire, doc, error)) << error;

    JsonValue mutated = doc;
    JsonValue extra;
    extra.kind = JsonValue::Kind::Null;
    mutated.object.emplace_back("surprise", extra);
    AllocationResponse out;
    EXPECT_FALSE(decodeResponse(writeJson(mutated), out, error));

    for (std::size_t i = 0; i < doc.object.size(); ++i) {
        JsonValue dropped = doc;
        dropped.object.erase(dropped.object.begin() +
                             std::ptrdiff_t(i));
        EXPECT_FALSE(decodeResponse(writeJson(dropped), out, error));
    }
}

TEST(ApiCodec, ErrorEnvelopeIsWellFormed)
{
    const std::string wire = encodeError("request.seed: bad \"value\"");
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(wire, doc, error)) << error;
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->string, errorSchema);
    ASSERT_NE(doc.find("error"), nullptr);
    EXPECT_EQ(doc.find("error")->string,
              "request.seed: bad \"value\"");
}

TEST(ApiCodec, NameTablesRoundTrip)
{
    Strategy strategy = Strategy::Exhaustive;
    EXPECT_TRUE(strategyFromName("annealing", strategy));
    EXPECT_EQ(strategy, Strategy::Annealing);
    EXPECT_TRUE(strategyFromName("exhaustive", strategy));
    EXPECT_EQ(strategy, Strategy::Exhaustive);
    EXPECT_FALSE(strategyFromName("genetic", strategy));
    EXPECT_STREQ(strategyName(Strategy::Exhaustive), "exhaustive");
    EXPECT_STREQ(strategyName(Strategy::Annealing), "annealing");

    for (BenchmarkId id : allBenchmarks()) {
        BenchmarkId out = BenchmarkId::Mpeg;
        EXPECT_TRUE(benchmarkFromName(benchmarkName(id), out));
        EXPECT_EQ(out, id);
    }
    BenchmarkId bench = BenchmarkId::Mpeg;
    EXPECT_FALSE(benchmarkFromName("doom", bench));

    for (OsKind os : {OsKind::Ultrix, OsKind::Mach}) {
        OsKind out = OsKind::Mach;
        EXPECT_TRUE(osKindFromName(osKindName(os), out));
        EXPECT_EQ(out, os);
    }
    OsKind os = OsKind::Mach;
    EXPECT_FALSE(osKindFromName("plan9", os));
}

TEST(ApiCodec, FingerprintExcludesExecutionFields)
{
    AllocationRequest a = sampleRequest();
    AllocationRequest b = a;
    b.threads = 32; // execution knob: same question
    EXPECT_EQ(a.responseKey().text(), b.responseKey().text());

    // Content knobs each move the key.
    b = a;
    b.seed = a.seed - 1;
    EXPECT_NE(a.responseKey().text(), b.responseKey().text());
    b = a;
    b.strategy = Strategy::Exhaustive;
    EXPECT_NE(a.responseKey().text(), b.responseKey().text());
    b = a;
    b.annealing.seed = a.annealing.seed + 1;
    EXPECT_NE(a.responseKey().text(), b.responseKey().text());
    b = a;
    b.topK = 10;
    EXPECT_NE(a.responseKey().text(), b.responseKey().text());
}

TEST(ApiCodec, AnnealingKnobsOnlyCountUnderAnnealing)
{
    // An exhaustive answer does not depend on annealing knobs, so
    // they must not fragment the store key space.
    AllocationRequest a;
    a.strategy = Strategy::Exhaustive;
    AllocationRequest b = a;
    b.annealing.seed = 999;
    b.annealing.iterations = 17;
    EXPECT_EQ(a.responseKey().text(), b.responseKey().text());
}

} // namespace
} // namespace oma::api
