/**
 * @file
 * QueryEngine serving-discipline tests.
 *
 * The contract under test (docs/MODEL.md §14): every serving path —
 * cold compute, a stored measurement, a stored response, a batch's
 * duplicate lines — returns
 * bitwise identical response bytes, at any thread count, and the
 * serve counters prove which path ran. The cold answer itself must
 * equal what the underlying sweep + strategy engines produce when
 * driven directly, so the facade can never drift from the engines it
 * fronts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/query_engine.hh"
#include "api/request.hh"
#include "area/mqf.hh"
#include "core/search_strategy.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "support/fingerprint.hh"

namespace oma::api
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test store root under the test temp directory. */
std::string
storeRoot(const std::string &name)
{
    const std::string root = testing::TempDir() + "/oma_qe_" + name +
        "." + std::to_string(::getpid());
    fs::remove_all(root);
    return root;
}

/** A deliberately small request: one workload, few references, a
 * grid of a handful of geometries — seconds, not minutes. */
AllocationRequest
tinyRequest()
{
    AllocationRequest request;
    request.workloads = {BenchmarkId::Mpeg};
    request.references = 20000;
    request.space.tlbEntries = {64};
    request.space.tlbWays = {1};
    request.space.tlbFullAssocMax = 64;
    request.space.cacheKBytes = {2, 4};
    request.space.lineWords = {4};
    request.space.cacheWays = {1, 2};
    request.topK = 5;
    return request;
}

/** The files under @p root, as sorted relative paths. */
std::vector<std::string>
storeFiles(const std::string &root)
{
    std::vector<std::string> paths;
    for (const auto &entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file())
            paths.push_back(
                fs::relative(entry.path(), root).generic_string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** One digest of every (relative path, file bytes) pair of
 * @p paths under @p root, in the given order. */
std::string
storeDigest(const std::string &root,
            const std::vector<std::string> &paths)
{
    Fingerprint digest;
    for (const std::string &path : paths) {
        std::ifstream in(fs::path(root) / path, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        digest.str(path, bytes);
    }
    return digest.hex();
}

std::uint64_t
counter(const obs::Observation &obs, const char *name)
{
    return obs.metrics.counter(name);
}

TEST(QueryEngine, AnswerMatchesTheEnginesDrivenDirectly)
{
    const AllocationRequest request = tinyRequest();

    // The facade's answer (storeless, so pure compute).
    QueryEngine engine;
    obs::Observation obs;
    const std::string answer = engine.answer(request, &obs);
    EXPECT_EQ(counter(obs, "serve/computed"), 1u);

    // The same question asked of the engines directly, the way the
    // table benches did before the facade existed.
    ComponentSweep sweep(request.space.cacheGeometries(),
                         request.space.cacheGeometries(),
                         request.space.tlbGeometries());
    const RunConfig rc = request.runConfig("");
    std::vector<SweepResult> results;
    for (const BenchmarkId id : request.workloads)
        results.push_back(
            sweep.run(benchmarkParams(id), request.os, rc));
    const ComponentCpiTables tables = ComponentCpiTables::average(
        results, MachineParams::decstation3100());
    const SearchSpace space(tables, AreaModel(), request.budgetRbe,
                            request.maxCacheWays);
    SearchResult direct =
        ExhaustiveStrategy().search(space, request.threads);

    AllocationResponse expected;
    expected.strategy = request.strategy;
    expected.inBudget = direct.allocations.size();
    expected.candidates = direct.candidates;
    expected.evaluations = direct.evaluations;
    expected.prunedSubspaces = direct.prunedSubspaces;
    expected.baseCpi = tables.baseCpi;
    expected.wbCpi = tables.wbCpi;
    expected.otherCpi = tables.otherCpi;
    expected.allocations = direct.allocations;
    if (expected.allocations.size() > request.topK)
        expected.allocations.resize(std::size_t(request.topK));

    EXPECT_EQ(answer, encodeResponse(expected));
}

TEST(QueryEngine, RepeatedWorkloadIsMeasuredOnce)
{
    // [mab, mab, jpeg_play] still averages three results, but mab is
    // recorded and replayed once. Storeless and store-backed, the
    // answer is the bytes of one sweep per listed workload.
    AllocationRequest request = tinyRequest();
    request.workloads = {BenchmarkId::Mab, BenchmarkId::Mab,
                         BenchmarkId::Jpeg};
    const QueryEngine storeless;
    ComponentSweep sweep(request.space.cacheGeometries(),
                         request.space.cacheGeometries(),
                         request.space.tlbGeometries());
    std::vector<SweepResult> listed;
    for (const BenchmarkId id : request.workloads)
        listed.push_back(sweep.run(benchmarkParams(id), request.os,
                                   request.runConfig("")));
    const std::string expected = encodeResponse(storeless.rank(
        request, ComponentCpiTables::average(
                     listed, MachineParams::decstation3100())));

    QueryEngineConfig config;
    config.storeDir = storeRoot("repeated");
    const QueryEngine stored(config);
    for (const QueryEngine *engine : {&storeless, &stored}) {
        obs::Observation obs;
        EXPECT_EQ(engine->answer(request, &obs), expected);
        EXPECT_EQ(counter(obs, "sweep/records"), 2u);
        EXPECT_EQ(counter(obs, "sweep/replays"), 2u);
    }
    fs::remove_all(config.storeDir);
}

TEST(QueryEngine, ThreadCountNeverChangesTheAnswer)
{
    AllocationRequest request = tinyRequest();
    request.threads = 1;
    QueryEngine one;
    const std::string serial = one.answer(request);

    request.threads = 4;
    QueryEngine four;
    EXPECT_EQ(four.answer(request), serial);
}

TEST(QueryEngine, SecondAnswerIsStoreWarmAndBitwiseIdentical)
{
    const std::string dir = storeRoot("warm");
    QueryEngineConfig config;
    config.storeDir = dir;
    const AllocationRequest request = tinyRequest();

    QueryEngine engine(config);
    obs::Observation cold;
    const std::string first = engine.answer(request, &cold);
    EXPECT_EQ(counter(cold, "serve/computed"), 1u);
    EXPECT_EQ(counter(cold, "serve/warm_hits"), 0u);
    // Each serial stage of an answer has a span: every answer keys
    // and gets its response; a computed one then averages, encodes
    // and puts it.
    const char *const lookups[] = {"calls/serve/key", "calls/serve/get"};
    const char *const stages[] = {"calls/serve/measure",
                                  "calls/serve/average",
                                  "calls/serve/encode", "calls/serve/put"};
    for (const char *lookup : lookups)
        EXPECT_EQ(counter(cold, lookup), 1u) << lookup;
    for (const char *stage : stages)
        EXPECT_EQ(counter(cold, stage), 1u) << stage;
    EXPECT_EQ(counter(cold, "serve/measured"), 1u);
    EXPECT_EQ(counter(cold, "serve/measurement_hits"), 0u);

    obs::Observation warm;
    const std::string second = engine.answer(request, &warm);
    EXPECT_EQ(second, first);
    EXPECT_EQ(counter(warm, "serve/warm_hits"), 1u);
    EXPECT_EQ(counter(warm, "serve/computed"), 0u);
    // Warm serving touches no simulator: no sweep records or
    // replays happen on this path, and none of the computed path's
    // stages runs.
    EXPECT_EQ(counter(warm, "sweep/records"), 0u);
    EXPECT_EQ(counter(warm, "sweep/replays"), 0u);
    for (const char *lookup : lookups)
        EXPECT_EQ(counter(warm, lookup), 1u) << lookup;
    for (const char *stage : stages)
        EXPECT_EQ(counter(warm, stage), 0u) << stage;

    // A different engine instance over the same store is also warm:
    // the answer lives in the store, not the process.
    QueryEngine other(config);
    obs::Observation cross;
    EXPECT_EQ(other.answer(request, &cross), first);
    EXPECT_EQ(counter(cross, "serve/warm_hits"), 1u);

    // A new budget is a new answer over the stored measurement: one
    // measurement get, then the search, the encode and the put. No
    // shard is loaded, nothing records or replays, nothing averages.
    AllocationRequest tighter = request;
    tighter.budgetRbe = 50000.0;
    obs::Observation ranked;
    EXPECT_EQ(engine.answer(tighter, &ranked),
              QueryEngine().answer(tighter));
    EXPECT_EQ(counter(ranked, "serve/computed"), 1u);
    EXPECT_EQ(counter(ranked, "serve/measurement_hits"), 1u);
    EXPECT_EQ(counter(ranked, "serve/measured"), 0u);
    EXPECT_EQ(counter(ranked, "store/hits"), 1u);
    EXPECT_EQ(counter(ranked, "store/writes"), 0u);
    for (const char *none : {"sweep/records", "sweep/replays",
                             "calls/sweep/load", "calls/serve/average"})
        EXPECT_EQ(counter(ranked, none), 0u) << none;
    for (const char *stage : {"calls/serve/measure", "calls/serve/encode",
                              "calls/serve/put"})
        EXPECT_EQ(counter(ranked, stage), 1u) << stage;
    fs::remove_all(dir);
}

TEST(QueryEngine, EveryPathGivesTheSameBytesAt1And4Threads)
{
    // One question answered cold, from a stored measurement, and
    // stored, at 1 and 4 threads: one set of bytes.
    AllocationRequest request = tinyRequest();
    request.workloads = {BenchmarkId::Mab, BenchmarkId::Mpeg};
    const std::string expected = QueryEngine().answer(request);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        request.threads = threads;
        AllocationRequest other = request;
        other.topK = 2;
        QueryEngineConfig config;
        config.storeDir = storeRoot("paths" + std::to_string(threads));
        const QueryEngine engine(config);
        EXPECT_EQ(QueryEngine().answer(request), expected);
        static_cast<void>(engine.answer(other));
        obs::Observation measured, stored;
        EXPECT_EQ(engine.answer(request, &measured), expected);
        EXPECT_EQ(counter(measured, "serve/measurement_hits"), 1u);
        EXPECT_EQ(engine.answer(request, &stored), expected);
        EXPECT_EQ(counter(stored, "serve/warm_hits"), 1u);
        fs::remove_all(config.storeDir);
    }
}

TEST(QueryEngine, DecodedMeasurementEqualsTheAverage)
{
    // The stored tables decode to average()'s field for field: the
    // geometries and extension parameters rebuilt from the space, and
    // every CPI bit for bit.
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const auto text = [](const auto &params) {
        Fingerprint fp;
        params.fingerprint(fp);
        return fp.text();
    };
    for (const ConfigSpace &space :
         {ConfigSpace(), ConfigSpace::extended()}) {
        SCOPED_TRACE(space.hasExtensions() ? "extended" : "classic");
        AllocationRequest request = tinyRequest();
        request.space = space;
        const ComponentCpiTables averaged = ComponentCpiTables::average(
            QueryEngine().sweep(request), MachineParams::decstation3100());
        ComponentCpiTables decoded;
        ASSERT_TRUE(decodeMeasurement(encodeMeasurement(averaged), space,
                                      decoded));

        EXPECT_EQ(decoded.icacheGeoms, averaged.icacheGeoms);
        EXPECT_EQ(decoded.dcacheGeoms, averaged.dcacheGeoms);
        EXPECT_EQ(decoded.tlbGeoms, averaged.tlbGeoms);
        const std::vector<double> ComponentCpiTables::*columns[] = {
            &ComponentCpiTables::icacheCpi, &ComponentCpiTables::dcacheCpi,
            &ComponentCpiTables::tlbCpi};
        for (const auto column : columns) {
            ASSERT_EQ((decoded.*column).size(), (averaged.*column).size());
            for (std::size_t i = 0; i < (averaged.*column).size(); ++i)
                EXPECT_EQ(bits((decoded.*column)[i]),
                          bits((averaged.*column)[i]));
        }
        EXPECT_EQ(space.hasExtensions(), !averaged.victimOptions.empty());
        ASSERT_EQ(decoded.victimOptions.size(),
                  averaged.victimOptions.size());
        for (std::size_t i = 0; i < averaged.victimOptions.size(); ++i) {
            EXPECT_EQ(text(decoded.victimOptions[i].params),
                      text(averaged.victimOptions[i].params));
            EXPECT_EQ(bits(decoded.victimOptions[i].cpi),
                      bits(averaged.victimOptions[i].cpi));
        }
        ASSERT_EQ(decoded.wbOptions.size(), averaged.wbOptions.size());
        for (std::size_t i = 0; i < averaged.wbOptions.size(); ++i) {
            EXPECT_EQ(text(decoded.wbOptions[i].params),
                      text(averaged.wbOptions[i].params));
            EXPECT_EQ(bits(decoded.wbOptions[i].cpi),
                      bits(averaged.wbOptions[i].cpi));
        }
        ASSERT_EQ(decoded.hierarchyOptions.size(),
                  averaged.hierarchyOptions.size());
        for (std::size_t i = 0; i < averaged.hierarchyOptions.size(); ++i) {
            EXPECT_EQ(text(decoded.hierarchyOptions[i].params),
                      text(averaged.hierarchyOptions[i].params));
            EXPECT_EQ(bits(decoded.hierarchyOptions[i].cpi),
                      bits(averaged.hierarchyOptions[i].cpi));
        }
        for (const double ComponentCpiTables::*scalar :
             {&ComponentCpiTables::baseCpi, &ComponentCpiTables::wbCpi,
              &ComponentCpiTables::otherCpi})
            EXPECT_EQ(bits(decoded.*scalar), bits(averaged.*scalar));
    }
}

TEST(QueryEngine, MeasurementOfOtherLengthsIsAMiss)
{
    // Tables whose list lengths disagree with the space's do not
    // decode, whatever the payload's size, and an answer re-measures
    // rather than trusting them.
    const AllocationRequest request = tinyRequest();
    const QueryEngine storeless;
    const std::string classic = encodeMeasurement(
        ComponentCpiTables::average(storeless.sweep(request),
                                    MachineParams::decstation3100()));
    ComponentCpiTables decoded;
    EXPECT_TRUE(decodeMeasurement(classic, request.space, decoded));
    EXPECT_FALSE(decodeMeasurement(classic, ConfigSpace::extended(),
                                   decoded));
    EXPECT_FALSE(decodeMeasurement(classic.substr(0, classic.size() - 8),
                                   request.space, decoded));
    EXPECT_FALSE(decodeMeasurement("", request.space, decoded));
    // The same size, but one double moved from the D-cache list to the
    // I-cache list.
    std::string shifted = classic;
    shifted[0] = char(shifted[0] + 1);
    shifted[8] = char(shifted[8] - 1);
    EXPECT_FALSE(decodeMeasurement(shifted, request.space, decoded));

    QueryEngineConfig config;
    config.storeDir = storeRoot("lengths");
    const QueryEngine engine(config);
    engine.store()->put(request.measurementKey(), shifted);
    obs::Observation obs;
    EXPECT_EQ(engine.answer(request, &obs), storeless.answer(request));
    EXPECT_EQ(counter(obs, "serve/measurement_hits"), 0u);
    EXPECT_EQ(counter(obs, "serve/measured"), 1u);
    EXPECT_EQ(counter(obs, "store/quarantined"), 0u);
    std::string payload;
    ASSERT_TRUE(engine.store()->get(request.measurementKey(), payload));
    EXPECT_EQ(payload, classic);
    fs::remove_all(config.storeDir);
}

TEST(QueryEngine, CorruptMeasurementIsQuarantinedAndRemeasured)
{
    // A truncated or garbage measurement entry is moved aside, and the
    // question re-measures from the stored shards, recording nothing,
    // with the bytes it gets from an intact store.
    QueryEngineConfig config;
    config.storeDir = storeRoot("corrupt");
    const QueryEngine engine(config);
    AllocationRequest request = tinyRequest();
    static_cast<void>(engine.answer(request));
    const std::string entry =
        engine.store()->entryPath(request.measurementKey());
    std::ifstream in(entry, std::ios::binary);
    const std::string intact((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    ASSERT_FALSE(intact.empty());

    const std::string damaged[] = {intact.substr(0, intact.size() / 2),
                                   std::string(intact.size(), 'x')};
    for (const std::string &bytes : damaged) {
        std::ofstream(entry, std::ios::binary | std::ios::trunc) << bytes;
        request.budgetRbe -= 1000.0;
        obs::Observation obs;
        EXPECT_EQ(engine.answer(request, &obs),
                  QueryEngine().answer(request));
        EXPECT_EQ(counter(obs, "store/quarantined"), 1u);
        EXPECT_EQ(counter(obs, "serve/measured"), 1u);
        EXPECT_EQ(counter(obs, "sweep/records"), 0u);
        EXPECT_EQ(counter(obs, "sweep/trace_skips"), 1u);
        EXPECT_TRUE(fs::exists(entry + ".corrupt"));
        std::ifstream again(entry, std::ios::binary);
        EXPECT_EQ(std::string((std::istreambuf_iterator<char>(again)),
                              std::istreambuf_iterator<char>()),
                  intact);
        fs::remove(entry + ".corrupt");
    }
    fs::remove_all(config.storeDir);
}

TEST(QueryEngine, BatchCoalescesDuplicatesToOneComputation)
{
    const std::string dir = storeRoot("batch");
    QueryEngineConfig config;
    config.storeDir = dir;
    QueryEngine engine(config);

    const std::string line = encodeRequest(tinyRequest());
    const std::vector<std::string> lines{line, line, line, line};
    obs::Observation obs;
    const std::vector<std::string> answers =
        engine.answerBatch(lines, &obs);

    ASSERT_EQ(answers.size(), 4u);
    for (const std::string &answer : answers)
        EXPECT_EQ(answer, answers.front());
    AllocationResponse decoded;
    std::string error;
    EXPECT_TRUE(decodeResponse(answers.front(), decoded, error))
        << error;

    EXPECT_EQ(counter(obs, "serve/batches"), 1u);
    EXPECT_EQ(counter(obs, "serve/requests"), 4u);
    EXPECT_EQ(counter(obs, "serve/computed"), 1u);
    EXPECT_EQ(counter(obs, "serve/dedup_hits"), 3u);
    EXPECT_EQ(counter(obs, "serve/warm_hits"), 0u);
    EXPECT_EQ(counter(obs, "serve/rejected"), 0u);
    fs::remove_all(dir);
}

TEST(QueryEngine, BatchRanksALaterBudgetFromTheStoredMeasurement)
{
    // On one lane, the second of two cold questions that differ only
    // in budget is ranked from the measurement the first stored: each
    // workload is recorded once, and each question gets the bytes it
    // gets alone.
    AllocationRequest wide = tinyRequest();
    wide.workloads = {BenchmarkId::Mab, BenchmarkId::Mpeg};
    AllocationRequest tight = wide;
    tight.budgetRbe = 50000.0;
    QueryEngineConfig config;
    config.storeDir = storeRoot("batch_measured");
    config.maxInflight = 1;
    const QueryEngine engine(config);
    obs::Observation obs;
    const std::vector<std::string> answers = engine.answerBatch(
        {encodeRequest(wide), encodeRequest(tight)}, &obs);
    ASSERT_EQ(answers.size(), 2u);
    EXPECT_EQ(answers[0], QueryEngine().answer(wide));
    EXPECT_EQ(answers[1], QueryEngine().answer(tight));
    EXPECT_NE(answers[0], answers[1]);

    EXPECT_EQ(counter(obs, "serve/computed"), 2u);
    EXPECT_EQ(counter(obs, "serve/measured"), 1u);
    EXPECT_EQ(counter(obs, "serve/measurement_hits"), 1u);
    EXPECT_EQ(counter(obs, "calls/serve/measure"), 2u);
    EXPECT_EQ(counter(obs, "calls/serve/answer"), 2u);
    EXPECT_EQ(counter(obs, "sweep/records"), 2u);
    // The engine's store holds the two responses; the sweep's writes
    // are every shard once plus the measurement.
    EXPECT_EQ(engine.store()->stats().writes, 2u);
    EXPECT_EQ(counter(obs, "store/writes") + 2,
              storeFiles(config.storeDir).size());
    fs::remove_all(config.storeDir);
}

TEST(QueryEngine, BatchMixesWarmDistinctAndInvalidLines)
{
    const std::string dir = storeRoot("mixed");
    QueryEngineConfig config;
    config.storeDir = dir;
    QueryEngine engine(config);

    const AllocationRequest small = tinyRequest();
    AllocationRequest tighter = small;
    // A genuinely tighter budget: the tiny grid's candidates span
    // roughly 44k-56k rbe, so this excludes some and the answer
    // content itself changes, not just the store key.
    tighter.budgetRbe = 50000.0;
    obs::Observation prime;
    const std::string warm_answer = engine.answer(small, &prime);

    const std::vector<std::string> lines{
        encodeRequest(small),   // warm
        encodeRequest(tighter), // computed
        "not json",             // refused
        encodeRequest(small),   // warm again (store hit, not dedupe)
    };
    obs::Observation obs;
    const std::vector<std::string> answers =
        engine.answerBatch(lines, &obs);
    ASSERT_EQ(answers.size(), 4u);
    EXPECT_EQ(answers[0], warm_answer);
    EXPECT_EQ(answers[3], warm_answer);
    EXPECT_NE(answers[1], warm_answer);
    EXPECT_NE(answers[2].find("oma-error-v1"), std::string::npos);

    // The two identical lines share one key group, so the second is
    // a dedup fan-out and only the group leader consults the store.
    EXPECT_EQ(counter(obs, "serve/requests"), 4u);
    EXPECT_EQ(counter(obs, "serve/warm_hits"), 1u);
    EXPECT_EQ(counter(obs, "serve/dedup_hits"), 1u);
    EXPECT_EQ(counter(obs, "serve/computed"), 1u);
    EXPECT_EQ(counter(obs, "serve/rejected"), 1u);
    fs::remove_all(dir);
}

TEST(QueryEngine, BatchRefusesLinesBeyondMaxBatch)
{
    QueryEngineConfig config;
    config.maxBatch = 2;
    QueryEngine engine(config);

    const std::string line = encodeRequest(tinyRequest());
    obs::Observation obs;
    const std::vector<std::string> answers =
        engine.answerBatch({line, line, line, line}, &obs);
    ASSERT_EQ(answers.size(), 4u);
    // The first two are admitted (one computed, one deduped)...
    EXPECT_EQ(answers[1], answers[0]);
    AllocationResponse decoded;
    std::string error;
    EXPECT_TRUE(decodeResponse(answers[0], decoded, error)) << error;
    // ...the rest are refused with the admission error.
    for (std::size_t i = 2; i < answers.size(); ++i) {
        EXPECT_NE(answers[i].find("oma-error-v1"), std::string::npos);
        EXPECT_NE(answers[i].find("admission"), std::string::npos);
    }
    EXPECT_EQ(counter(obs, "serve/rejected"), 2u);
    EXPECT_EQ(counter(obs, "serve/computed"), 1u);
    EXPECT_EQ(counter(obs, "serve/dedup_hits"), 1u);
}

TEST(QueryEngine, InvalidRequestsEarnErrorAnswers)
{
    QueryEngine engine;
    obs::Observation obs;

    AllocationRequest empty = tinyRequest();
    empty.workloads.clear();
    std::string answer = engine.answer(empty, &obs);
    EXPECT_NE(answer.find("oma-error-v1"), std::string::npos);
    EXPECT_NE(answer.find("workloads"), std::string::npos);

    AllocationRequest broke = tinyRequest();
    broke.budgetRbe = 0.0;
    answer = engine.answer(broke, &obs);
    EXPECT_NE(answer.find("oma-error-v1"), std::string::npos);

    AllocationRequest no_iters = tinyRequest();
    no_iters.strategy = Strategy::Annealing;
    no_iters.annealing.iterations = 0;
    answer = engine.answer(no_iters, &obs);
    EXPECT_NE(answer.find("oma-error-v1"), std::string::npos);

    // The wire path refuses garbage the same way, never crashing.
    for (const std::string &line :
         engine.answerBatch({"{\"not\":\"a request\"}", "garbage"}, &obs))
        EXPECT_NE(line.find("oma-error-v1"), std::string::npos);

    EXPECT_EQ(counter(obs, "serve/batches"), 1u);
    EXPECT_EQ(counter(obs, "serve/rejected"), 5u);
    EXPECT_EQ(counter(obs, "serve/requests"), 5u);
    EXPECT_EQ(counter(obs, "serve/computed"), 0u);
}

TEST(QueryEngine, ValidateNamesTheOffendingField)
{
    std::string error;
    AllocationRequest request = tinyRequest();
    EXPECT_TRUE(QueryEngine::validate(request, error));

    request.references = 0;
    EXPECT_FALSE(QueryEngine::validate(request, error));
    EXPECT_NE(error.find("references"), std::string::npos);

    // The reference cap is inclusive; the question itself is never
    // run here (it would record 10^8 references per workload).
    request.references = QueryEngine::maxReferences;
    EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    request.references = QueryEngine::maxReferences + 1;
    EXPECT_FALSE(QueryEngine::validate(request, error));
    EXPECT_EQ(error, "request.references: at most 100000000 per workload");

    // The checks built on geometry lists pass validate() and fail
    // ConfigSpace::check(), which answer() runs after the warm get
    // misses and whose text it prefixes with "request.".
    request = tinyRequest();
    request.space.tlbEntries.clear();
    request.space.tlbFullAssocMax = 0;
    EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    EXPECT_EQ(request.space.check(request.maxCacheWays),
              "space: TLB axis is empty");

    request = tinyRequest();
    request.maxCacheWays = 0;
    EXPECT_FALSE(QueryEngine::validate(request, error));
    EXPECT_NE(error.find("max_cache_ways"), std::string::npos);

    // An answer lists 1 to 1,000 allocations; top_k 0 (every
    // allocation) is for in-process rank() callers only.
    request = tinyRequest();
    for (const std::uint64_t top_k : {1u, 1000u}) {
        request.topK = top_k;
        EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    }
    for (const std::uint64_t top_k : {0u, 1001u}) {
        request.topK = top_k;
        EXPECT_FALSE(QueryEngine::validate(request, error));
        EXPECT_EQ(error, "request.top_k: must be between 1 and 1000");
    }

    // The iterations cap is inclusive too; that search is not run.
    request = tinyRequest();
    request.strategy = Strategy::Annealing;
    request.annealing.iterations = QueryEngine::maxAnnealingIterations;
    EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    request.annealing.iterations = QueryEngine::maxAnnealingIterations + 1;
    EXPECT_FALSE(QueryEngine::validate(request, error));
    EXPECT_EQ(error, "request.annealing.iterations: at most 1000000 per "
                     "chain");

    // Each array may hold 64 values, duplicates included, and no more;
    // the length is checked before any list is built from it.
    request = tinyRequest();
    request.workloads.assign(QueryEngine::maxArrayValues, BenchmarkId::Mab);
    request.space.tlbWays.assign(QueryEngine::maxArrayValues, 1);
    EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    request.space.tlbWays.push_back(1);
    EXPECT_FALSE(QueryEngine::validate(request, error));
    EXPECT_EQ(error, "request.space.tlb_ways: at most 64 values");
    request.workloads.push_back(BenchmarkId::Mab);
    EXPECT_FALSE(QueryEngine::validate(request, error));
    EXPECT_EQ(error, "request.workloads: at most 64 values");

    // So is the candidate cap: 1 TLB x 10^4 x 10^4 caches.
    request = tinyRequest();
    request.space.tlbFullAssocMax = 0;
    request.space.cacheKBytes.assign(50, 2);
    request.space.lineWords.assign(50, 4);
    request.space.cacheWays = {1, 2, 4, 8};
    EXPECT_EQ(request.space.candidateCount(request.maxCacheWays),
              ConfigSpace::maxCandidates);
    EXPECT_EQ(request.space.check(request.maxCacheWays), "");
    request.space.wbEntries = {1, 2};
    EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    EXPECT_EQ(request.space.check(request.maxCacheWays),
              "space: 200000000 candidates exceed the limit of "
              "100000000");

    // validate() builds no list, so 64 cache sizes x 64 line sizes x
    // 64 ways under Table 5's 17 TLBs (about 1.2 x 10^12 candidates)
    // pass it at once; the candidate cap in check() refuses them.
    request = tinyRequest();
    request.space = ConfigSpace();
    request.space.cacheKBytes.assign(64, 2);
    request.space.lineWords.assign(64, 4);
    request.space.cacheWays.assign(64, 1);
    EXPECT_TRUE(QueryEngine::validate(request, error)) << error;
    EXPECT_EQ(request.space.check(request.maxCacheWays),
              "space: 1168231104512 candidates exceed the limit of "
              "100000000");
}

TEST(QueryEngine, StoreBytesArePinned)
{
    // Every file a cold answer leaves in an empty store (every
    // replay shard, the measurement and the response; no trace) is
    // pinned byte for byte, at any thread count. Store payloads hold
    // integers and doubles in host byte order, so the goldens are
    // those of an x86-64 (little-endian) host. A deliberate format
    // change regenerates them and says so in the change log.
    struct Question
    {
        const char *name;
        ConfigSpace space;
        std::size_t files;
        const char *digest;
        const char *measurementDigest;
    };
    const Question questions[] = {
        {"classic", ConfigSpace(), 517,
         "86fba7be1ff1387d5250509a3e86c51e",
         "015ce7aa0b5ea1a237e543f88c008cd1"},
        {"extended", ConfigSpace::extended(), 559,
         "7527b9fc093f73e44ec6cb8f7a2a4b23",
         "4927e49406eaaabd89f285843656da9a"},
    };
    for (const Question &q : questions) {
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << q.name << " threads " << threads);
            AllocationRequest request;
            request.workloads = {BenchmarkId::Mab, BenchmarkId::Mpeg};
            request.references = 20000;
            request.space = q.space;
            request.threads = threads;
            QueryEngineConfig config;
            config.storeDir = storeRoot(std::string("bytes_") + q.name +
                                        std::to_string(threads));
            QueryEngine engine(config);
            const std::string answer = engine.answer(request);
            EXPECT_EQ(answer.find("oma-error-v1"), std::string::npos);
            // The measurement entry has its own golden; every other
            // file kept its bytes when the store began holding it.
            const std::string measurement =
                fs::relative(engine.store()->entryPath(
                                 request.measurementKey()),
                             config.storeDir)
                    .generic_string();
            std::vector<std::string> paths = storeFiles(config.storeDir);
            const auto entry =
                std::find(paths.begin(), paths.end(), measurement);
            ASSERT_NE(entry, paths.end());
            paths.erase(entry);
            EXPECT_EQ(paths.size(), q.files);
            EXPECT_EQ(storeDigest(config.storeDir, paths), q.digest);
            EXPECT_EQ(storeDigest(config.storeDir, {measurement}),
                      q.measurementDigest);
            fs::remove_all(config.storeDir);
        }
    }
}

TEST(QueryEngine, ConcurrentIdenticalAnswersCoalesceAndMatch)
{
    // Four threads race answer() on one engine and one store. Each
    // either computes or finds the answer stored; computed answers
    // put the same bytes under the same key, so the race leaves
    // exactly the store a serial answer leaves.
    const AllocationRequest request = tinyRequest();
    QueryEngineConfig serial_config;
    serial_config.storeDir = storeRoot("serial");
    EXPECT_EQ(QueryEngine(serial_config).answer(request).find("oma-error"),
              std::string::npos);
    const std::vector<std::string> serial_files =
        storeFiles(serial_config.storeDir);

    QueryEngineConfig config;
    config.storeDir = storeRoot("concurrent");
    const QueryEngine engine(config);
    constexpr int kThreads = 4;
    std::vector<std::string> payloads(kThreads);
    std::vector<obs::Observation> shards(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            payloads[std::size_t(t)] =
                engine.answer(request, &shards[std::size_t(t)]);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const std::string &payload : payloads)
        EXPECT_EQ(payload, payloads.front());
    std::uint64_t served = 0;
    for (const obs::Observation &shard : shards)
        served += counter(shard, "serve/computed") +
            counter(shard, "serve/warm_hits");
    EXPECT_EQ(served, std::uint64_t(kThreads));
    EXPECT_EQ(storeFiles(config.storeDir), serial_files);
    EXPECT_EQ(storeDigest(config.storeDir, serial_files),
              storeDigest(serial_config.storeDir, serial_files));
    fs::remove_all(serial_config.storeDir);
    fs::remove_all(config.storeDir);
}

} // namespace
} // namespace oma::api
