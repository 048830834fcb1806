/**
 * @file
 * Per-layer timing for the traced benchmark run (see layers.hh).
 */

#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/component.hh"
#include "core/sweep.hh"
#include "machine/machine.hh"
#include "store/codec.hh"
#include "support/clock.hh"
#include "support/threadpool.hh"
#include "workload/system.hh"

namespace perfbench
{

namespace
{

using namespace oma;

double
msSince(std::int64_t start_ns)
{
    return Clock::toMs(Clock::nowNs() - start_ns);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Time @p m's spans of record, replay and search add up to. */
double
spannedMs(const obs::MetricRegistry &m)
{
    return m.gauge("time_ms/sweep/record") +
        m.gauge("time_ms/sweep/replay") +
        m.gauge("time_ms/search/exhaustive") +
        m.gauge("time_ms/search/annealing");
}

Fingerprint
payloadKey(const std::string &measurement, std::size_t workload,
           const char *artifact, std::size_t task)
{
    Fingerprint fp;
    fp.str("bench.measurement", measurement);
    fp.u64("bench.workload", workload);
    fp.str("artifact", artifact);
    fp.u64("task", task);
    return fp;
}

/** The slots the engine sweeps for @p space, in its task order. */
std::vector<ComponentSlot>
sweepSlots(const ConfigSpace &space)
{
    const api::SweepGrid grid = api::SweepGrid::fromSpace(space);
    ComponentSweep sweep(grid.icacheGeoms, grid.dcacheGeoms,
                         grid.tlbGeoms);
    for (const ComponentSlot &slot : grid.components)
        sweep.addComponent(slot);
    return sweep.components();
}

/** The engine's counters for the @p i -th slot of @p kind. */
ComponentCounters
sweptCounters(const SweepResult &r, ComponentKind kind, std::size_t i)
{
    switch (kind) {
      case ComponentKind::ICache:
        return r.icache(i).stats;
      case ComponentKind::DCache:
        return r.dcache(i).stats;
      case ComponentKind::Tlb:
        return r.tlb(i).stats;
      case ComponentKind::Victim:
        return r.victim(i).stats;
      case ComponentKind::WriteBuffer:
        return r.writeBuffer(i).stats;
      case ComponentKind::Hierarchy:
        return r.hierarchy(i).stats;
    }
    return CacheStats();
}

constexpr ComponentKind allKinds[] = {
    ComponentKind::ICache, ComponentKind::DCache,
    ComponentKind::Tlb,    ComponentKind::Victim,
    ComponentKind::WriteBuffer, ComponentKind::Hierarchy};

} // namespace

std::string
measurementText(const api::AllocationRequest &request)
{
    Fingerprint fp;
    fp.str("os", osKindName(request.os));
    fp.u64("seed", request.seed);
    fp.u64("references", request.references);
    for (const BenchmarkId id : request.workloads)
        fp.str("workload", benchmarkName(id));
    request.space.fingerprint(fp);
    return fp.text();
}

LayerTracer::LayerTracer(const std::string &side_dir,
                         const std::string &engine_store_dir,
                         unsigned lanes)
    : _side(side_dir), _engineStore(engine_store_dir), _lanes(lanes)
{
}

void
LayerTracer::prime(const std::string &request_line)
{
    api::AllocationRequest request;
    std::string error;
    std::vector<std::string> ignored;
    if (api::decodeRequest(request_line, request, error))
        measure(request, nullptr, nullptr, ignored);
}

double
LayerTracer::measure(const api::AllocationRequest &request,
                     const std::vector<SweepResult> *engine_results,
                     std::map<std::string, double> *sums,
                     std::vector<std::string> &mismatches)
{
    const auto sum = [sums](const std::string &name, double value) {
        if (sums != nullptr)
            (*sums)[name] += value;
    };
    const MachineParams reference = MachineParams::decstation3100();
    const std::vector<ComponentSlot> slots = sweepSlots(request.space);
    const std::string measurement = measurementText(request);
    Payloads &keys = _payloads[measurement];
    keys = Payloads();

    double unspanned_ms = 0.0;
    for (std::size_t w = 0; w < request.workloads.size(); ++w) {
        const char *name = benchmarkName(request.workloads[w]);
        std::int64_t start = Clock::nowNs();
        System system(benchmarkParams(request.workloads[w]), request.os,
                      request.seed);
        const RecordedTrace trace = system.record(request.references);
        const double record_ms = msSince(start);

        start = Clock::nowNs();
        const std::string payload = store::encodeTrace(trace);
        const double encode_ms = msSince(start);

        keys.traces.push_back(payloadKey(measurement, w, "trace", 0));
        start = Clock::nowNs();
        _side.put(keys.traces.back(), payload);
        const double put_ms = msSince(start);

        RecordedTrace decoded;
        if (!store::decodeTrace(payload, decoded) ||
            decoded.size() != trace.size())
            mismatches.push_back(std::string("trace codec round trip "
                                             "failed for ") + name);

        // One flat index space like the engine's: task 0 replays the
        // reference machine, task s+1 slot s; each stores its shard.
        const std::size_t tasks = 1 + slots.size();
        const std::size_t first_shard = keys.shards.size();
        for (std::size_t t = 0; t < tasks; ++t)
            keys.shards.push_back(payloadKey(measurement, w, "shard", t));
        std::vector<std::int64_t> replay_ns(tasks), put_ns(tasks);
        std::vector<std::uint64_t> shard_bytes(tasks);
        std::vector<ComponentCounters> counters(slots.size());
        std::uint64_t instructions = 0;
        ThreadPool pool(_lanes);
        start = Clock::nowNs();
        pool.parallelFor(0, tasks, [&](std::size_t task) {
            const std::int64_t begin = Clock::nowNs();
            std::string shard;
            if (task == 0) {
                Machine machine(reference);
                trace.replay(
                    [&](const MemRef &ref) { machine.observe(ref); },
                    [&](const TraceEvent &e) {
                        machine.mmu().invalidatePage(e.vpn, e.asid,
                                                     e.global);
                    });
                store::MachineShard s;
                s.instructions = machine.stalls().instructions;
                s.icacheStall = machine.stalls().icacheStall;
                s.dcacheStall = machine.stalls().dcacheStall;
                s.wbStall = machine.stalls().wbStall;
                s.tlbStall = machine.stalls().tlbStall;
                s.wbStores = machine.writeBuffer().stores();
                s.wbStallCycles = machine.writeBuffer().stallCycles();
                instructions = s.instructions;
                shard = store::encodeMachineShard(s);
            } else {
                const std::unique_ptr<ComponentReplayer> component =
                    makeComponent(slots[task - 1], reference);
                replayComponent(trace, *component);
                counters[task - 1] = component->counters();
                shard = encodeComponentCounters(counters[task - 1]);
            }
            const std::int64_t replayed = Clock::nowNs();
            _side.put(keys.shards[first_shard + task], shard);
            replay_ns[task] = replayed - begin;
            put_ns[task] = Clock::nowNs() - replayed;
            shard_bytes[task] = shard.size();
        });
        const double pool_ms = msSince(start);

        double busy_ms = 0.0, replay_ms = 0.0, shard_put_ms = 0.0;
        std::uint64_t bytes = payload.size();
        for (std::size_t t = 0; t < tasks; ++t) {
            const double task_ms = Clock::toMs(replay_ns[t]);
            replay_ms += task_ms;
            shard_put_ms += Clock::toMs(put_ns[t]);
            busy_ms += task_ms + Clock::toMs(put_ns[t]);
            bytes += shard_bytes[t];
            sum(t == 0 ? std::string("machine.replay_core_ms")
                       : std::string("core.replay_core_ms.") +
                           componentKindName(slots[t - 1].kind),
                task_ms);
        }
        sum("workload.record_ms", record_ms);
        sum("trace.encode_ms", encode_ms);
        sum("trace.bytes", double(payload.size()));
        sum("trace.refs", double(trace.size()));
        sum("store.put_ms", put_ms + shard_put_ms);
        sum("store.put_bytes", double(bytes));
        sum("core.replay_refs", double(tasks) * double(trace.size()));
        sum("core.replay_ms", replay_ms);
        sum("support.busy_ms", busy_ms);
        sum("support.lane_ms", double(pool.threadCount()) * pool_ms);
        // The engine's sweep spans cover record and the replay pool;
        // encode and the trace put fall between them.
        const double sweep_ms = record_ms + encode_ms + put_ms + pool_ms;
        sum("core.sweep_ms", sweep_ms);
        sum("core.sweep_unattributed_ms", encode_ms + put_ms);
        unspanned_ms += encode_ms + put_ms;

        if (engine_results == nullptr)
            continue;
        const SweepResult &result = (*engine_results)[w];
        if (result.instructions != instructions)
            mismatches.push_back(std::string("reference machine replay "
                                             "differs for ") + name);
        std::size_t kind_index[numComponentKinds] = {};
        for (std::size_t s = 0; s < slots.size(); ++s) {
            const ComponentKind kind = slots[s].kind;
            const std::size_t i = kind_index[std::size_t(kind)]++;
            if (encodeComponentCounters(counters[s]) !=
                encodeComponentCounters(sweptCounters(result, kind, i)))
                mismatches.push_back(
                    std::string("replayed ") + componentKindName(kind) +
                    "[" + std::to_string(i) + "] counters differ for " +
                    name);
        }
    }
    return unspanned_ms;
}

std::vector<std::string>
LayerTracer::reanswer(const api::QueryEngine &engine, const Batch &batch,
                      const std::vector<std::string> &answers,
                      const obs::Observation &observation,
                      double answer_ms)
{
    std::vector<std::string> mismatches;
    const obs::MetricRegistry &counters = observation.metrics;
    _engine.merge(counters);
    add("bench.answer_ms", answer_ms);
    add("bench.lines", double(batch.size()));
    // Stage time the answer is attributed to: the engine's own record,
    // replay and search spans of this answer, plus the benchmark's
    // timing of what the engine leaves outside any span.
    double stage_ms = 0.0;

    // Decode and key every line, grouping duplicates like answerBatch.
    struct Group
    {
        api::AllocationRequest request;
        Fingerprint key;
        std::size_t line;
    };
    std::vector<Group> groups;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        api::AllocationRequest request;
        std::string error;
        std::int64_t start = Clock::nowNs();
        const bool decoded = api::decodeRequest(batch[i], request, error);
        const double decode_ms = msSince(start);
        if (!decoded) {
            mismatches.push_back("request does not decode: " + error);
            continue;
        }
        start = Clock::nowNs();
        Fingerprint key = request.responseKey();
        const double key_ms = msSince(start);
        add("api.decode_ms", decode_ms);
        add("api.response_key_ms", key_ms);
        stage_ms += decode_ms + key_ms;
        const bool seen = std::any_of(
            groups.begin(), groups.end(), [&key](const Group &g) {
                return g.key.text() == key.text();
            });
        if (!seen)
            groups.push_back(Group{std::move(request), std::move(key), i});
    }

    // What the engine did for this batch, by its own counters.
    const bool computed = counters.counter("serve/computed") != 0;
    const bool recorded = counters.counter("sweep/records") != 0;
    std::uint64_t trace_loads = counters.counter("store/trace_hits");
    const std::uint64_t hits = counters.counter("store/hits");
    std::uint64_t shard_loads = hits > trace_loads ? hits - trace_loads
                                                   : 0;

    for (const Group &g : groups) {
        std::string stored;
        std::int64_t start = Clock::nowNs();
        static_cast<void>(_engineStore.get(g.key, stored));
        const double get_ms = msSince(start);
        add("store.response_get_ms", get_ms);
        stage_ms += get_ms;
        if (!computed)
            continue;

        obs::Observation sweep_observation;
        start = Clock::nowNs();
        const std::vector<SweepResult> results =
            engine.sweep(g.request, &sweep_observation);
        const double sweep_ms = msSince(start);
        start = Clock::nowNs();
        const ComponentCpiTables tables = ComponentCpiTables::average(
            results, MachineParams::decstation3100());
        const double average_ms = msSince(start);
        obs::Observation rank_observation;
        start = Clock::nowNs();
        const api::AllocationResponse response =
            engine.rank(g.request, tables, &rank_observation);
        const double search_ms = msSince(start);
        start = Clock::nowNs();
        const std::string bytes = api::encodeResponse(response);
        const double encode_ms = msSince(start);
        if (bytes != answers[g.line])
            mismatches.push_back("stage-by-stage answer differs from "
                                 "the engine's");
        start = Clock::nowNs();
        _side.put(g.key, bytes);
        const double put_ms = msSince(start);

        const std::string strategy =
            api::strategyName(g.request.strategy);
        add("core.average_ms", average_ms);
        add("core.search_ms." + strategy, search_ms);
        add("core.searches." + strategy, 1.0);
        add("core.search_evaluations", double(response.evaluations));
        add("core.search_candidates", double(response.candidates));
        add("api.encode_ms", encode_ms);
        add("store.put_ms", put_ms);
        add("store.put_bytes", double(bytes.size()));
        stage_ms += average_ms + encode_ms + put_ms +
            (search_ms - spannedMs(rank_observation.metrics));

        if (recorded) {
            // Measured from scratch: time the record/replay layers.
            stage_ms += measure(g.request, &results, &_sums, mismatches);
            continue;
        }
        const double sweep_unspanned_ms =
            sweep_ms - spannedMs(sweep_observation.metrics);
        add("core.sweep_ms", sweep_ms);
        add("core.sweep_unattributed_ms", sweep_unspanned_ms);
        stage_ms += sweep_unspanned_ms;

        // Repeat the engine's store loads on identical payloads.
        const auto it = _payloads.find(measurementText(g.request));
        if (it == _payloads.end()) {
            if (trace_loads + shard_loads != 0)
                mismatches.push_back("no payloads for a measurement the "
                                     "engine loaded");
            continue;
        }
        const Payloads &keys = it->second;
        std::string payload;
        for (std::uint64_t j = 0; j < trace_loads; ++j) {
            start = Clock::nowNs();
            const bool hit =
                _side.get(keys.traces[j % keys.traces.size()], payload);
            add("store.trace_get_ms", msSince(start));
            RecordedTrace trace;
            start = Clock::nowNs();
            if (!hit || !store::decodeTrace(payload, trace))
                mismatches.push_back("side-store trace does not load");
            add("trace.decode_ms", msSince(start));
        }
        for (std::uint64_t j = 0; j < shard_loads; ++j) {
            start = Clock::nowNs();
            if (!_side.get(keys.shards[j % keys.shards.size()], payload))
                mismatches.push_back("side-store shard does not load");
            add("store.shard_get_ms", msSince(start));
        }
        trace_loads = shard_loads = 0;
    }
    // A batch's gauges are its last computed question's; the cold and
    // warm-sweep batches carry one question each.
    if (computed)
        stage_ms += spannedMs(counters);
    add("bench.stage_ms", stage_ms);
    return mismatches;
}

std::map<std::string, LayerMetric>
LayerTracer::metrics(double untraced_answer_ms,
                     const StoreStatsSnapshot &responses) const
{
    const auto sum = [this](const std::string &name) {
        const auto it = _sums.find(name);
        return it == _sums.end() ? 0.0 : it->second;
    };
    const double lines = sum("bench.lines");
    std::map<std::string, LayerMetric> out;
    const auto perQuery = [&](const std::string &name, const char *unit) {
        out[name] = {ratio(sum(name), lines), unit};
    };
    for (const char *name :
         {"workload.record_ms", "machine.replay_core_ms", "store.put_ms",
          "trace.encode_ms", "store.trace_get_ms", "trace.decode_ms",
          "store.shard_get_ms", "core.sweep_ms",
          "core.sweep_unattributed_ms", "core.average_ms",
          "api.decode_ms", "api.response_key_ms",
          "store.response_get_ms", "api.encode_ms", "bench.answer_ms"})
        perQuery(name, "ms/query");
    for (const ComponentKind kind : allKinds)
        perQuery(std::string("core.replay_core_ms.") +
                     componentKindName(kind),
                 "ms/query");
    perQuery("store.put_bytes", "B/query");
    // Stages timed on a second execution can add up to more than the
    // answer took; that noise must not read as a smaller hidden cost,
    // so the metric is the size of the gap and the sign goes aside.
    const double unattributed =
        ratio(sum("bench.answer_ms") - sum("bench.stage_ms"), lines);
    out["bench.unattributed_ms"] = {std::abs(unattributed), "ms/query"};
    out["bench.unattributed_signed_ms"] = {unattributed, "ms/query"};
    out["trace.bytes_per_ref"] = {
        ratio(sum("trace.bytes"), sum("trace.refs")), "B/ref"};
    out["core.replay_refs_per_core_s"] = {
        ratio(sum("core.replay_refs"), sum("core.replay_ms") / 1000.0),
        "refs/s"};
    out["support.pool_busy_frac"] = {
        ratio(sum("support.busy_ms"), sum("support.lane_ms")), "frac"};

    double searches = 0.0;
    for (const char *strategy : {"exhaustive", "annealing"}) {
        const std::string n = std::string("core.searches.") + strategy;
        const std::string t = std::string("core.search_ms.") + strategy;
        out[t] = {ratio(sum(t), sum(n)), "ms/search"};
        searches += sum(n);
    }
    out["core.search_evaluations"] = {
        ratio(sum("core.search_evaluations"), searches), "count/search"};
    out["core.search_eval_frac"] = {
        ratio(sum("core.search_evaluations"),
              sum("core.search_candidates")),
        "frac"};

    // Store traffic: the sweeps' artifact stores plus the engine's
    // response store.
    out["store.hits"] = {
        double(_engine.counter("store/hits") + responses.hits), "count"};
    out["store.misses"] = {
        double(_engine.counter("store/misses") + responses.misses),
        "count"};
    out["store.writes"] = {
        double(_engine.counter("store/writes") + responses.writes),
        "count"};
    for (const char *name : {"computed", "warm_hits", "dedup_hits"})
        out[std::string("serve.") + name] = {
            double(_engine.counter(std::string("serve/") + name)),
            "count"};
    out["bench.trace_overhead_frac"] = {
        untraced_answer_ms > 0.0
            ? sum("bench.answer_ms") / untraced_answer_ms - 1.0
            : 0.0,
        "frac"};
    return out;
}

} // namespace perfbench
