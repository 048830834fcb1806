/**
 * @file
 * Implementation of component sweeps.
 */

#include "core/sweep.hh"

#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <variant>

#include "cache/replay.hh"
#include "obs/export.hh"
#include "store/codec.hh"
#include "support/clock.hh"
#include "support/logging.hh"
#include "support/threadpool.hh"

namespace oma
{

namespace
{

/**
 * Fingerprint of everything upstream of the record phase: formats,
 * OS personality, seed, trace length and the complete workload
 * description. Every replay shard's store key extends this base, so
 * any change in provenance keys a fresh entry. The trace format
 * version stays in it although no trace is stored, so shards written
 * when the recording was stored too keep their keys.
 * RunConfig::userOnly is deliberately absent — the sweep path never
 * consults it.
 */
Fingerprint
sweepBaseKey(const WorkloadParams &workload, OsKind os,
             const RunConfig &run)
{
    Fingerprint fp;
    fp.u64("store.format_version", ArtifactStore::formatVersion);
    fp.u64("trace.format_version", store::traceFormatVersion);
    fp.str("run.os", osKindName(os));
    fp.u64("run.seed", run.seed);
    fp.u64("run.references", run.references);
    workload.fingerprint(fp);
    return fp;
}

/** Whether a Cheetah pass reports @p slot: every I- and D-cache
 * slot. */
bool
inCachePass(const ComponentSlot &slot)
{
    return slot.kind == ComponentKind::ICache ||
        slot.kind == ComponentKind::DCache;
}

/** The cache stream a cache slot replays. */
CacheStream
cacheStream(const ComponentSlot &slot)
{
    return slot.kind == ComponentKind::ICache ? CacheStream::Fetch
                                              : CacheStream::Data;
}

/** Add one listed counter of a slot into its kind's sum. */
void
addCounter(std::uint64_t &sum, std::uint64_t value)
{
    sum += value;
}

template <std::size_t N>
void
addCounter(std::uint64_t (&sum)[N], const std::uint64_t (&value)[N])
{
    for (std::size_t i = 0; i < N; ++i)
        sum[i] += value[i];
}

} // namespace

ComponentSweep::ComponentSweep(std::vector<CacheGeometry> icache_geoms,
                               std::vector<CacheGeometry> dcache_geoms,
                               std::vector<TlbGeometry> tlb_geoms,
                               const MachineParams &reference_machine)
    : _refMachine(reference_machine)
{
    _slots.reserve(icache_geoms.size() + dcache_geoms.size() +
                   tlb_geoms.size());
    for (const CacheGeometry &geom : icache_geoms)
        _slots.push_back(ComponentSlot::icache(geom));
    for (const CacheGeometry &geom : dcache_geoms)
        _slots.push_back(ComponentSlot::dcache(geom));
    for (const TlbGeometry &geom : tlb_geoms) {
        TlbParams p;
        p.geom = geom;
        _slots.push_back(ComponentSlot::tlb(p));
    }
}

ComponentSweep::ComponentSweep(std::vector<ComponentSlot> slots,
                               const MachineParams &reference_machine)
    : _slots(std::move(slots)), _refMachine(reference_machine)
{
}

std::vector<SweepResult>
ComponentSweep::run(const std::vector<WorkloadParams> &workloads,
                    OsKind os, const RunConfig &run,
                    obs::Observation &observation) const
{
    const std::unique_ptr<ArtifactStore> store =
        ArtifactStore::open(run.storeDir);
    obs::MetricRegistry &m = observation.metrics;

    // A workload listed twice is measured once: its shards would be
    // probed before its first listing wrote them, and its recording
    // and replay would repeat the first's bit for bit.
    std::vector<Fingerprint> base_keys;
    std::vector<const WorkloadParams *> measured;
    std::vector<std::size_t> measurement_of;
    for (const WorkloadParams &workload : workloads) {
        Fingerprint key = sweepBaseKey(workload, os, run);
        std::size_t w = 0;
        while (w < base_keys.size() && base_keys[w].text() != key.text())
            ++w;
        if (w == base_keys.size()) {
            base_keys.push_back(std::move(key));
            measured.push_back(&workload);
        }
        measurement_of.push_back(w);
    }

    // The record phase (on the calling lane), run only for a workload
    // with some shard to replay: capture the stream once. The
    // workload RNG and the OS model advance exactly as in a legacy
    // single-pass run; page-invalidation events land inline in the
    // recording at the index of the reference the OS fired them
    // while producing, which is where every replay applies them. The
    // recording is a pure function of (workload, OS, seed,
    // references) and recording it costs what fetching and decoding
    // it would, so it is never stored.
    const auto record = [&](std::size_t w,
                            RecordedTrace &slot) -> const RecordedTrace & {
        System system(*measured[w], os, run.seed);
        const std::int64_t start = Clock::nowNs();
        obs::Span span(m, "sweep/record");
        slot = system.record(run.references);
        span.stop();
        m.accumulate("core_ms/sweep/record",
                     Clock::toMs(Clock::nowNs() - start));
        m.add("sweep/records");
        return slot;
    };

    const std::vector<SweepResult> results =
        sweepTasks(record, ThreadPool::resolveThreads(run.threads),
                   observation, store.get(), base_keys);
    if (store != nullptr)
        obs::exportArtifactStore(m, "store", *store);
    std::vector<SweepResult> listed;
    listed.reserve(workloads.size());
    for (const std::size_t w : measurement_of)
        listed.push_back(results[w]);
    return listed;
}

SweepResult
ComponentSweep::run(const WorkloadParams &workload, OsKind os,
                    const RunConfig &run,
                    obs::Observation &observation) const
{
    return std::move(ComponentSweep::run(std::vector{workload}, os, run,
                                         observation)
                         .front());
}

SweepResult
ComponentSweep::run(const RecordedTrace &trace, unsigned threads,
                    obs::Observation &observation) const
{
    std::vector<SweepResult> results = sweepTasks(
        [&trace](std::size_t, RecordedTrace &) -> const RecordedTrace & {
            return trace;
        },
        ThreadPool::resolveThreads(threads), observation, nullptr,
        {Fingerprint()});
    return std::move(results.front());
}

std::vector<SweepResult>
ComponentSweep::sweepTasks(const TraceSource &trace_source,
                           unsigned threads,
                           obs::Observation &observation,
                           const ArtifactStore *store,
                           const std::vector<Fingerprint> &base_keys) const
{
    // One flat task index per measurement across the reference
    // machine (task 0) and every component slot (task s + 1). Replay
    // runs per work item on the pool: one task on its private
    // simulator, or every missing I- or D-cache task of one line size
    // in one private Cheetah pass, whose counters equal the per-slot
    // Cache's bit for bit. Each
    // item writes only its own tasks' result slots, so the results
    // are bitwise identical for any thread count. Every simulator
    // streams the packed trace columns chunk by chunk
    // (core/component.hh, cache/replay.hh). With the store enabled, a
    // task whose shard is stored loads it (exact integer counters, so
    // a hit reproduces the live slot bit-for-bit) and a replayed task
    // persists its shard right after simulating — which is what makes
    // a killed sweep resume at its last completed item.
    const std::size_t n_slots = _slots.size();
    const std::size_t n_tasks = 1 + n_slots;

    // Per-kind index of each slot: names the store shard and backs
    // the typed per-kind views.
    SweepResult empty;
    empty._slots = _slots;
    empty._stats.resize(n_slots);
    std::vector<std::size_t> kind_index(n_slots);
    for (std::size_t s = 0; s < n_slots; ++s) {
        std::vector<std::size_t> &index =
            empty._kindIndex[std::size_t(_slots[s].kind)];
        kind_index[s] = index.size();
        index.push_back(s);
    }

    // The replay work, one pool index per item: a single task, or
    // every missing cache task of one (stream, line size), which one
    // Cheetah pass reports at once. An item sits at
    // its first task's position.
    struct WorkItem
    {
        bool pass = false;
        std::vector<std::size_t> tasks;
    };

    // One workload's measurement. Pool lanes write only its result
    // slots, `machine`, `delivered` and `coreNs`, each index its own.
    struct Measurement
    {
        SweepResult result;
        // Task 0's outcome: the reference machine's stall attribution
        // for the configuration-independent CPI components, plus the
        // recording's length and non-memory CPI.
        store::MachineShard machine;
        // References each replayed task's simulator was fed.
        std::vector<std::uint64_t> delivered;
        std::vector<char> loaded;
        std::vector<WorkItem> work;
        std::size_t passes = 0;
        // Each work item's core time.
        std::vector<std::int64_t> coreNs;
        // The recording, while it is needed, and where it lives.
        RecordedTrace recording;
        const RecordedTrace *trace = nullptr;
    };
    std::vector<Measurement> measurements(base_keys.size());
    for (Measurement &ms : measurements) {
        ms.result = empty;
        ms.delivered.assign(n_tasks, 0);
        ms.loaded.assign(n_tasks, 0);
    }

    // The store key of a measurement's task shard. Component keys
    // reproduce the historical per-kind keys exactly (kind name +
    // per-kind index + parameter fingerprint, plus the TLB handler
    // penalties for TLB slots), so stores written by the three-legged
    // engine stay warm.
    const auto shard_key = [&](std::size_t w, std::size_t task) {
        Fingerprint key = base_keys[w];
        key.str("artifact", "shard");
        if (task == 0) {
            key.str("component", "machine");
            _refMachine.fingerprint(key);
            return key;
        }
        const ComponentSlot &slot = _slots[task - 1];
        key.str("component", componentKindName(slot.kind));
        key.u64("index", kind_index[task - 1]);
        slot.fingerprint(key);
        if (slot.kind == ComponentKind::Tlb)
            _refMachine.tlbPenalties.fingerprint(key);
        return key;
    };

    // Load a task's stored shard into its result slot; false on a
    // miss or a payload that does not decode (a legacy layout too).
    const auto load = [&](std::size_t w, std::size_t task) {
        std::string payload;
        if (store == nullptr || !store->get(shard_key(w, task), payload))
            return false;
        Measurement &ms = measurements[w];
        if (task == 0)
            return store::decodeCounters(payload, ms.machine);
        return decodeComponentCounters(payload, _slots[task - 1].kind,
                                       ms.result._stats[task - 1]);
    };

    // Simulate a task over the recording and persist its shard.
    const auto replay = [&](std::size_t w, std::size_t task) {
        Measurement &ms = measurements[w];
        const RecordedTrace &trace = *ms.trace;
        std::string payload;
        if (task == 0) {
            Machine m(_refMachine);
            trace.replay([&](const MemRef &ref) { m.observe(ref); },
                         [&](const TraceEvent &e) {
                             m.mmu().invalidatePage(e.vpn, e.asid,
                                                    e.global);
                         });
            ms.machine.instructions = m.stalls().instructions;
            ms.machine.icacheStall = m.stalls().icacheStall;
            ms.machine.dcacheStall = m.stalls().dcacheStall;
            ms.machine.wbStall = m.stalls().wbStall;
            ms.machine.tlbStall = m.stalls().tlbStall;
            ms.machine.wbStores = m.writeBuffer().stores();
            ms.machine.wbStallCycles = m.writeBuffer().stallCycles();
            ms.machine.references = trace.size();
            ms.machine.otherCpi = trace.otherCpi();
            payload = store::encodeCounters(ms.machine);
        } else {
            const std::unique_ptr<ComponentReplayer> component =
                makeComponent(_slots[task - 1], _refMachine);
            replayComponent(trace, *component);
            ms.result._stats[task - 1] = component->counters();
            ms.delivered[task] = component->delivered();
            payload = encodeComponentCounters(ms.result._stats[task - 1]);
        }
        if (store != nullptr)
            store->put(shard_key(w, task), payload);
    };

    // Simulate a group of cache tasks of one stream and line size in
    // one Cheetah pass, then persist each member's shard.
    const auto replay_pass = [&](std::size_t w,
                                 const std::vector<std::size_t> &tasks) {
        Measurement &ms = measurements[w];
        std::vector<CacheGeometry> geoms;
        geoms.reserve(tasks.size());
        for (const std::size_t task : tasks)
            geoms.push_back(
                std::get<CacheGeometry>(_slots[task - 1].params));
        Cheetah pass(geoms);
        const std::uint64_t stream_refs = replayCacheStream(
            *ms.trace, cacheStream(_slots[tasks.front() - 1]), pass);
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const std::size_t task = tasks[i];
            ms.result._stats[task - 1] = pass.stats(geoms[i]);
            ms.delivered[task] = stream_refs;
            if (store != nullptr)
                store->put(shard_key(w, task),
                           encodeComponentCounters(
                               ms.result._stats[task - 1]));
        }
    };

    obs::MetricRegistry &m = observation.metrics;
    ThreadPool pool(threads);

    // Load every stored shard of every measurement before deciding
    // which recordings are needed at all; a miss is just a failed
    // open, so a cold question pays little for probing first.
    if (store != nullptr) {
        obs::Span span(m, "sweep/load");
        pool.parallelFor(0, measurements.size() * n_tasks,
                         [&](std::size_t i) {
                             const std::size_t w = i / n_tasks;
                             const std::size_t task = i % n_tasks;
                             measurements[w].loaded[task] =
                                 load(w, task) ? 1 : 0;
                             if (measurements[w].loaded[task] != 0)
                                 observation.tick();
                         });
    }

    // Each measurement's work items, and the measurements that need
    // their recording, in order.
    std::vector<std::size_t> to_record;
    for (std::size_t w = 0; w < measurements.size(); ++w) {
        Measurement &ms = measurements[w];
        std::map<std::pair<ComponentKind, std::uint64_t>, std::size_t>
            pass_items;
        for (std::size_t task = 0; task < n_tasks; ++task) {
            if (ms.loaded[task] != 0)
                continue;
            if (task == 0 || !inCachePass(_slots[task - 1])) {
                ms.work.push_back({false, {task}});
                continue;
            }
            const ComponentSlot &slot = _slots[task - 1];
            const auto [it, added] = pass_items.try_emplace(
                {slot.kind, std::get<CacheGeometry>(slot.params).lineBytes},
                ms.work.size());
            if (added)
                ms.work.push_back({true, {}});
            ms.work[it->second].tasks.push_back(task);
        }
        ms.passes = pass_items.size();
        ms.coreNs.assign(ms.work.size(), 0);
        if (!ms.work.empty())
            to_record.push_back(w);
    }

    // Record one measurement ahead: the calling lane records the
    // first, then records each next one while the pool replays the
    // one before it, and joins that replay when done. A recording is
    // released as soon as its replay ends, so at most two are live.
    const auto record = [&](std::size_t w) {
        Measurement &ms = measurements[w];
        ms.trace = &trace_source(w, ms.recording);
    };
    std::size_t next = 0; // to_record[next] is recorded next
    if (!to_record.empty())
        record(to_record[next++]);

    for (std::size_t w = 0; w < measurements.size(); ++w) {
        Measurement &ms = measurements[w];
        if (ms.work.empty()) {
            m.add("sweep/trace_skips");
        } else {
            std::function<void()> record_next;
            if (next < to_record.size())
                record_next = [&record, ahead = to_record[next++]] {
                    record(ahead);
                };
            {
                obs::Span span(m, "sweep/replay");
                pool.parallelFor(
                    0, ms.work.size(),
                    [&](std::size_t i) {
                        const std::int64_t start = Clock::nowNs();
                        const WorkItem &item = ms.work[i];
                        if (item.pass)
                            replay_pass(w, item.tasks);
                        else
                            replay(w, item.tasks.front());
                        ms.coreNs[i] = Clock::nowNs() - start;
                        for (std::size_t t = 0; t < item.tasks.size(); ++t)
                            observation.tick();
                    },
                    record_next);
            }
            obs::exportRecordedTrace(m, "trace", *ms.trace);
            ms.recording = RecordedTrace();
            ms.trace = nullptr;
            m.add("sweep/replays");
            // The reference machine feeds no replay counter.
            if (ms.work.size() > 1 || ms.work.front().tasks.front() != 0)
                m.add("replay/batched_refs",
                      std::accumulate(ms.delivered.begin(),
                                      ms.delivered.end(),
                                      std::uint64_t(0)));
            if (ms.passes != 0)
                m.add("replay/cache_passes", ms.passes);
            // Core time per replay kind, the reference machine's as
            // `machine`.
            for (std::size_t i = 0; i < ms.work.size(); ++i) {
                const std::size_t task = ms.work[i].tasks.front();
                m.accumulate(
                    std::string("core_ms/sweep/replay/") +
                        (task == 0
                             ? "machine"
                             : componentKindName(_slots[task - 1].kind)),
                    Clock::toMs(ms.coreNs[i]));
            }
        }

        // The counters, exported once per kind from the finished
        // slots (summed in task order) and once for the reference
        // machine.
        SweepResult &result = ms.result;
        obs::exportStallCounters(
            m, "machine",
            {ms.machine.instructions, ms.machine.icacheStall,
             ms.machine.dcacheStall, ms.machine.wbStall,
             ms.machine.tlbStall});
        obs::exportWriteBufferCounters(m, "wb", ms.machine.wbStores,
                                       ms.machine.wbStallCycles);
        for (std::size_t k = 0; k < numComponentKinds; ++k) {
            const std::vector<std::size_t> &index = result._kindIndex[k];
            if (index.empty())
                continue;
            std::visit(
                [&](auto total) {
                    using Stats = decltype(total);
                    for (std::size_t j = 1; j < index.size(); ++j)
                        Stats::forEachCounter(
                            [](const char *, auto &sum,
                               const auto &value) {
                                addCounter(sum, value);
                            },
                            total,
                            std::get<Stats>(result._stats[index[j]]));
                    obs::exportCounters(
                        m, componentKindName(ComponentKind(k)), total);
                },
                result._stats[index.front()]);
        }

        result.instructions = ms.machine.instructions;
        result.references = ms.machine.references;
        result.otherCpi = ms.machine.otherCpi;
        const double instr =
            double(std::max<std::uint64_t>(1, result.instructions));
        result.wbCpi = double(ms.machine.wbStall) / instr;
    }
    obs::exportThreadPool(m, "threadpool", pool);

    std::vector<SweepResult> results;
    results.reserve(measurements.size());
    for (Measurement &ms : measurements)
        results.push_back(std::move(ms.result));
    return results;
}

ComponentCpiTables
ComponentCpiTables::average(const std::vector<SweepResult> &results,
                            const MachineParams &mp)
{
    panicIf(results.empty(), "cannot average zero sweep results");
    ComponentCpiTables tables;
    const SweepResult &first = results.front();
    for (std::size_t i = 0; i < first.icacheCount(); ++i)
        tables.icacheGeoms.push_back(first.icache(i).geom);
    for (std::size_t i = 0; i < first.dcacheCount(); ++i)
        tables.dcacheGeoms.push_back(first.dcache(i).geom);
    for (std::size_t i = 0; i < first.tlbCount(); ++i)
        tables.tlbGeoms.push_back(first.tlb(i).geom);
    tables.icacheCpi.assign(tables.icacheGeoms.size(), 0.0);
    tables.dcacheCpi.assign(tables.dcacheGeoms.size(), 0.0);
    tables.tlbCpi.assign(tables.tlbGeoms.size(), 0.0);

    tables.victimOptions.resize(first.victimCount());
    for (std::size_t i = 0; i < first.victimCount(); ++i)
        tables.victimOptions[i].params = first.victim(i).params;
    tables.wbOptions.resize(first.writeBufferCount());
    for (std::size_t i = 0; i < first.writeBufferCount(); ++i)
        tables.wbOptions[i].params = first.writeBuffer(i).params;
    tables.hierarchyOptions.resize(first.hierarchyCount());
    for (std::size_t i = 0; i < first.hierarchyCount(); ++i)
        tables.hierarchyOptions[i].params = first.hierarchy(i).params;

    double wb = 0.0, other = 0.0;
    for (const auto &r : results) {
        panicIf(r.icacheCount() != tables.icacheGeoms.size() ||
                    r.dcacheCount() != tables.dcacheGeoms.size() ||
                    r.tlbCount() != tables.tlbGeoms.size() ||
                    r.victimCount() != tables.victimOptions.size() ||
                    r.writeBufferCount() != tables.wbOptions.size() ||
                    r.hierarchyCount() !=
                        tables.hierarchyOptions.size(),
                "sweep results built from different component lists");
        for (std::size_t i = 0; i < tables.icacheCpi.size(); ++i)
            tables.icacheCpi[i] += r.icache(i).cpi(mp);
        for (std::size_t i = 0; i < tables.dcacheCpi.size(); ++i)
            tables.dcacheCpi[i] += r.dcache(i).cpi(mp);
        for (std::size_t i = 0; i < tables.tlbCpi.size(); ++i)
            tables.tlbCpi[i] += r.tlb(i).cpi();
        for (std::size_t i = 0; i < tables.victimOptions.size(); ++i)
            tables.victimOptions[i].cpi += r.victim(i).cpi(mp);
        for (std::size_t i = 0; i < tables.wbOptions.size(); ++i)
            tables.wbOptions[i].cpi += r.writeBuffer(i).cpi();
        for (std::size_t i = 0; i < tables.hierarchyOptions.size();
             ++i)
            tables.hierarchyOptions[i].cpi += r.hierarchy(i).cpi();
        wb += r.wbCpi;
        other += r.otherCpi;
    }
    const double n = double(results.size());
    for (auto &v : tables.icacheCpi)
        v /= n;
    for (auto &v : tables.dcacheCpi)
        v /= n;
    for (auto &v : tables.tlbCpi)
        v /= n;
    for (auto &v : tables.victimOptions)
        v.cpi /= n;
    for (auto &v : tables.wbOptions)
        v.cpi /= n;
    for (auto &v : tables.hierarchyOptions)
        v.cpi /= n;
    // Like the paper's Tables 6/7, the total CPI of an allocation is
    // 1 + TLB + I-cache + D-cache; write-buffer and non-memory
    // stalls are configuration-independent and kept separately.
    tables.baseCpi = 1.0;
    tables.wbCpi = wb / n;
    tables.otherCpi = other / n;
    return tables;
}

} // namespace oma
