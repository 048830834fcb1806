/**
 * @file
 * QueryEngine implementation: a stored answer, a stored measurement
 * or a sweep; one batch grouped by response key.
 */

#include "api/query_engine.hh"

#include <algorithm>
#include <utility>
#include <variant>

#include "area/mqf.hh"
#include "core/search_strategy.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "store/codec.hh"
#include "support/threadpool.hh"

namespace oma::api
{

namespace
{

/** The observation an entry point records into: the caller's, or
 * the calling thread's scratch sink when the caller passed none. */
obs::Observation &
sink(obs::Observation *observation)
{
    return observation != nullptr ? *observation : obs::Observation::none();
}

/**
 * validate()'s check of `threads`, the one request field the response
 * key leaves out. answerBatch() applies it to every line before
 * grouping, because lines that differ only in `threads` share one
 * group and its leader's answer.
 */
bool
threadsWithinLimit(const AllocationRequest &request, std::string &error)
{
    if (request.threads <= QueryEngine::maxRequestThreads)
        return true;
    error = "request.threads: at most " +
        std::to_string(QueryEngine::maxRequestThreads) + " lanes";
    return false;
}

} // namespace

std::string
encodeMeasurement(const ComponentCpiTables &tables)
{
    std::string out;
    for (const std::size_t n :
         {tables.icacheCpi.size(), tables.dcacheCpi.size(),
          tables.tlbCpi.size(), tables.victimOptions.size(),
          tables.wbOptions.size(), tables.hierarchyOptions.size()})
        store::appendRaw(out, std::uint64_t(n));
    for (const std::vector<double> *column :
         {&tables.icacheCpi, &tables.dcacheCpi, &tables.tlbCpi})
        for (const double v : *column)
            store::appendRaw(out, v);
    for (const auto &o : tables.victimOptions)
        store::appendRaw(out, o.cpi);
    for (const auto &o : tables.wbOptions)
        store::appendRaw(out, o.cpi);
    for (const auto &o : tables.hierarchyOptions)
        store::appendRaw(out, o.cpi);
    for (const double v : {tables.baseCpi, tables.wbCpi, tables.otherCpi})
        store::appendRaw(out, v);
    return out;
}

bool
decodeMeasurement(std::string_view payload, const ConfigSpace &space,
                  ComponentCpiTables &tables)
{
    // The lists come from the grid the sweep measures, so the decoded
    // tables equal average()'s field for field.
    SweepGrid grid = SweepGrid::fromSpace(space);
    ComponentCpiTables decoded;
    decoded.icacheGeoms = std::move(grid.icacheGeoms);
    decoded.dcacheGeoms = std::move(grid.dcacheGeoms);
    decoded.tlbGeoms = std::move(grid.tlbGeoms);
    for (const ComponentSlot &slot : grid.components) {
        if (const auto *p = std::get_if<VictimParams>(&slot.params))
            decoded.victimOptions.push_back({*p, 0.0});
        else if (const auto *p = std::get_if<WriteBufferParams>(&slot.params))
            decoded.wbOptions.push_back({*p, 0.0});
        else if (const auto *p = std::get_if<HierarchyParams>(&slot.params))
            decoded.hierarchyOptions.push_back({*p, 0.0});
    }
    decoded.icacheCpi.resize(decoded.icacheGeoms.size());
    decoded.dcacheCpi.resize(decoded.dcacheGeoms.size());
    decoded.tlbCpi.resize(decoded.tlbGeoms.size());

    // Six lengths, then every double in encodeMeasurement()'s order:
    // a length the space's lists disagree with, or any other size, is
    // a miss.
    const std::size_t lengths[] = {
        decoded.icacheCpi.size(), decoded.dcacheCpi.size(),
        decoded.tlbCpi.size(),    decoded.victimOptions.size(),
        decoded.wbOptions.size(), decoded.hierarchyOptions.size()};
    store::Reader in(payload);
    for (const std::size_t n : lengths) {
        std::uint64_t length = 0;
        if (!in.get(length) || length != n)
            return false;
    }
    // A short payload fails every read from its end on, and done()
    // reports it.
    for (std::vector<double> *column :
         {&decoded.icacheCpi, &decoded.dcacheCpi, &decoded.tlbCpi})
        for (double &v : *column)
            in.get(v);
    for (auto &o : decoded.victimOptions)
        in.get(o.cpi);
    for (auto &o : decoded.wbOptions)
        in.get(o.cpi);
    for (auto &o : decoded.hierarchyOptions)
        in.get(o.cpi);
    for (double *v : {&decoded.baseCpi, &decoded.wbCpi, &decoded.otherCpi})
        in.get(*v);
    if (!in.done())
        return false;
    tables = std::move(decoded);
    return true;
}

SweepGrid
SweepGrid::fromSpace(const ConfigSpace &space)
{
    SweepGrid grid;
    // The sweep measures the full associativity grid; ranking applies
    // the request's max_cache_ways restriction (Table 7 ranks 2-way
    // out of the same measurements Table 6 uses).
    grid.icacheGeoms = space.cacheGeometries();
    grid.dcacheGeoms = space.cacheGeometries();
    grid.tlbGeoms = space.tlbGeometries();
    grid.components = space.extensionSlots();
    return grid;
}

QueryEngine::QueryEngine(QueryEngineConfig config)
    : _config(std::move(config)),
      _store(ArtifactStore::open(_config.storeDir))
{
}

bool
QueryEngine::validate(const AllocationRequest &request,
                      std::string &error)
{
    // Only checks that build no list: every list-built check runs
    // once, in ConfigSpace::check(), after the warm get misses. The
    // array lengths bound the lists it builds.
    const ConfigSpace &space = request.space;
    const struct
    {
        const char *field;
        std::size_t values;
    } arrays[] = {
        {"workloads", request.workloads.size()},
        {"space.tlb_entries", space.tlbEntries.size()},
        {"space.tlb_ways", space.tlbWays.size()},
        {"space.cache_kbytes", space.cacheKBytes.size()},
        {"space.line_words", space.lineWords.size()},
        {"space.cache_ways", space.cacheWays.size()},
        {"space.victim_entries", space.victimEntries.size()},
        {"space.wb_entries", space.wbEntries.size()},
        {"space.l2_kbytes", space.l2KBytes.size()},
    };
    for (const auto &array : arrays) {
        if (array.values > maxArrayValues) {
            error = std::string("request.") + array.field + ": at most " +
                std::to_string(maxArrayValues) + " values";
            return false;
        }
    }
    if (request.workloads.empty()) {
        error = "request.workloads: at least one workload required";
        return false;
    }
    if (request.references == 0) {
        error = "request.references: must be positive";
        return false;
    }
    if (request.references > maxReferences) {
        error = "request.references: at most " +
            std::to_string(maxReferences) + " per workload";
        return false;
    }
    if (!(request.budgetRbe > 0.0)) {
        error = "request.budget_rbe: must be positive";
        return false;
    }
    if (request.maxCacheWays == 0) {
        error = "request.max_cache_ways: must be positive";
        return false;
    }
    if (request.topK == 0 || request.topK > maxTopK) {
        error = "request.top_k: must be between 1 and " +
            std::to_string(maxTopK);
        return false;
    }
    if (!threadsWithinLimit(request, error))
        return false;
    if (request.strategy != Strategy::Annealing)
        return true;
    if (request.annealing.chains == 0 ||
        request.annealing.iterations == 0) {
        error = "request.annealing: chains and iterations must be "
                "positive";
        return false;
    }
    if (request.annealing.chains > maxAnnealingChains) {
        error = "request.annealing.chains: at most " +
            std::to_string(maxAnnealingChains) + " chains";
        return false;
    }
    if (request.annealing.iterations > maxAnnealingIterations) {
        error = "request.annealing.iterations: at most " +
            std::to_string(maxAnnealingIterations) + " per chain";
        return false;
    }
    return true;
}

std::vector<SweepResult>
QueryEngine::sweep(const AllocationRequest &request,
                   obs::Observation *observation,
                   const SweepGrid *grid) const
{
    SweepGrid derived;
    if (grid == nullptr) {
        derived = SweepGrid::fromSpace(request.space);
        grid = &derived;
    }
    ComponentSweep sweep(grid->icacheGeoms, grid->dcacheGeoms,
                         grid->tlbGeoms);
    for (const ComponentSlot &slot : grid->components)
        sweep.addComponent(slot);
    std::vector<WorkloadParams> workloads;
    workloads.reserve(request.workloads.size());
    for (const BenchmarkId id : request.workloads)
        workloads.push_back(benchmarkParams(id));
    return sweep.run(workloads, request.os,
                     request.runConfig(_config.storeDir),
                     sink(observation));
}

AllocationResponse
QueryEngine::rank(const AllocationRequest &request,
                  const ComponentCpiTables &tables,
                  obs::Observation *observation) const
{
    const SearchSpace space(tables, AreaModel(), request.budgetRbe,
                            request.maxCacheWays);
    obs::Observation &into = sink(observation);
    SearchResult result;
    if (request.strategy == Strategy::Annealing) {
        result = AnnealingStrategy(request.annealing)
                     .search(space, request.threads, into);
    } else {
        result = ExhaustiveStrategy(request.topK)
                     .search(space, request.threads, into);
    }
    AllocationResponse response;
    response.strategy = request.strategy;
    response.inBudget = result.inBudget;
    response.candidates = result.candidates;
    response.evaluations = result.evaluations;
    response.prunedSubspaces = result.prunedSubspaces;
    response.baseCpi = tables.baseCpi;
    response.wbCpi = tables.wbCpi;
    response.otherCpi = tables.otherCpi;
    // Both strategies return at most top_k allocations (annealing
    // returns one).
    response.allocations = std::move(result.allocations);
    return response;
}

ComponentCpiTables
QueryEngine::measure(const AllocationRequest &request,
                     obs::Observation &observation) const
{
    obs::MetricRegistry &m = observation.metrics;
    obs::Span span(m, "serve/measure");
    // The sweep's store, not the responses': its gets and puts are
    // exported with the shards' under `store/`.
    const std::unique_ptr<ArtifactStore> store =
        ArtifactStore::open(_config.storeDir);
    const Fingerprint key = request.measurementKey();
    ComponentCpiTables tables;
    std::string payload;
    if (store != nullptr && store->get(key, payload) &&
        decodeMeasurement(payload, request.space, tables)) {
        m.add("serve/measurement_hits");
    } else {
        const std::vector<SweepResult> results =
            sweep(request, &observation);
        obs::Span average(m, "serve/average");
        tables = ComponentCpiTables::average(
            results, MachineParams::decstation3100());
        average.stop();
        m.add("serve/measured");
        if (store != nullptr)
            store->put(key, encodeMeasurement(tables));
    }
    if (store != nullptr)
        obs::exportArtifactStore(m, "store", *store);
    return tables;
}

std::string
QueryEngine::serve(const AllocationRequest &request, const Fingerprint &key,
                   obs::Observation &observation) const
{
    obs::MetricRegistry &m = observation.metrics;
    obs::Span span(m, "serve/answer");
    m.add("serve/requests");
    std::string error;
    if (!validate(request, error)) {
        m.add("serve/rejected");
        return encodeError(error);
    }
    if (_store != nullptr) {
        obs::Span get(m, "serve/get");
        std::string payload;
        const bool hit = _store->get(key, payload);
        get.stop();
        if (hit) {
            m.add("serve/warm_hits");
            return payload;
        }
    }
    // A space the simulators cannot build never produced a stored
    // answer, so checking it only after the warm get misses costs the
    // warm path nothing — and keeps one bad line from reaching a
    // sweep, where the same check is fatal to the whole process.
    if (const std::string bad = request.space.check(request.maxCacheWays);
        !bad.empty()) {
        m.add("serve/rejected");
        return encodeError("request." + bad);
    }
    const AllocationResponse response =
        rank(request, measure(request, observation), &observation);
    obs::Span encode(m, "serve/encode");
    std::string payload = encodeResponse(response);
    encode.stop();
    m.add("serve/computed");
    if (_store != nullptr) {
        obs::Span put(m, "serve/put");
        _store->put(key, payload);
    }
    return payload;
}

std::string
QueryEngine::answer(const AllocationRequest &request,
                    obs::Observation *observation) const
{
    obs::Observation &into = sink(observation);
    obs::Span key_span(into.metrics, "serve/key");
    const Fingerprint key = request.responseKey();
    key_span.stop();
    return serve(request, key, into);
}

std::vector<std::string>
QueryEngine::answerBatch(const std::vector<std::string> &request_lines,
                         obs::Observation *observation) const
{
    obs::MetricRegistry &m = sink(observation).metrics;
    m.add("serve/batches");
    std::vector<std::string> answers(request_lines.size());

    // Group decodable requests by response key deterministically
    // before any computation, so N identical lines coalesce to one
    // compute regardless of scheduling and `serve/dedup_hits` is a
    // pure function of the batch.
    struct Group
    {
        AllocationRequest request;
        Fingerprint key;
        std::vector<std::size_t> lines;
    };
    std::vector<Group> groups;
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < request_lines.size(); ++i) {
        if (admitted >= _config.maxBatch) {
            m.add("serve/requests");
            m.add("serve/rejected");
            answers[i] = encodeError(
                "batch admission limit (" +
                std::to_string(_config.maxBatch) + ") exceeded");
            continue;
        }
        ++admitted;
        AllocationRequest request;
        std::string error;
        if (!decodeRequest(request_lines[i], request, error) ||
            !threadsWithinLimit(request, error)) {
            m.add("serve/requests");
            m.add("serve/rejected");
            answers[i] = encodeError(error);
            continue;
        }
        obs::Span key_span(m, "serve/key");
        Fingerprint key = request.responseKey();
        key_span.stop();
        bool joined = false;
        for (Group &group : groups) {
            if (group.key.text() == key.text()) {
                group.lines.push_back(i);
                joined = true;
                break;
            }
        }
        if (joined) {
            m.add("serve/requests");
            m.add("serve/dedup_hits");
            continue;
        }
        groups.push_back(
            Group{std::move(request), std::move(key), {i}});
    }

    // Compute distinct requests on bounded lanes; per-group metric
    // shards merge in group order below, so the registry stays
    // schedule-independent.
    std::vector<obs::Observation> shards(groups.size());
    const unsigned lanes = unsigned(std::min<std::size_t>(
        std::max(1u, _config.maxInflight), groups.size()));
    std::vector<std::string> group_answers(groups.size());
    if (!groups.empty()) {
        parallelFor(lanes, 0, groups.size(), [&](std::size_t g) {
            group_answers[g] =
                serve(groups[g].request, groups[g].key, shards[g]);
        });
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
        m.merge(shards[g].metrics);
        for (const std::size_t line : groups[g].lines)
            answers[line] = group_answers[g];
    }
    return answers;
}

} // namespace oma::api
