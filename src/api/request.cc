/**
 * @file
 * Strict JSON codecs and fingerprints for the query API types.
 */

#include "api/request.hh"

#include <limits>
#include <utility>

#include "os/osmodel.hh"
#include "store/codec.hh"
#include "store/store.hh"
#include "support/json.hh"
#include "workload/workload.hh"

namespace oma::api
{

namespace
{

/**
 * Strict member-set reader over one parsed JSON object: every
 * accessor marks its key consumed and reports a typed, positioned
 * error on absence or kind mismatch; finish() then rejects any
 * member the schema never asked for. The parser has already rejected
 * duplicate keys, so consumed-set bookkeeping is by name.
 */
class ObjectReader
{
  public:
    ObjectReader(const JsonValue *value, std::string context,
                 std::string &error)
        : _obj(value), _context(std::move(context)), _error(error)
    {
        if (_obj == nullptr || _obj->kind != JsonValue::Kind::Object) {
            _obj = nullptr;
            _error = _context + ": expected a JSON object";
        }
    }

    [[nodiscard]] bool failed() const { return _obj == nullptr; }

    /** Member @p name, recording it consumed; null + error when
     * absent (or when the reader already failed). */
    const JsonValue *
    get(std::string_view name)
    {
        if (_obj == nullptr)
            return nullptr;
        const JsonValue *value = _obj->find(name);
        if (value == nullptr) {
            fail(name, "required field is missing");
            return nullptr;
        }
        _seen.emplace_back(name);
        return value;
    }

    bool
    u64(std::string_view name, std::uint64_t &out)
    {
        const JsonValue *value = get(name);
        if (value == nullptr)
            return false;
        if (!value->asU64(out))
            return fail(name, "expected an unsigned integer");
        return true;
    }

    /** u64() for a field held in an unsigned: a value that does not
     * fit is an error, not a truncation. */
    bool
    u32(std::string_view name, unsigned &out)
    {
        std::uint64_t wide = 0;
        if (!u64(name, wide))
            return false;
        if (wide > std::numeric_limits<unsigned>::max())
            return fail(name, "does not fit an unsigned 32-bit integer");
        out = unsigned(wide);
        return true;
    }

    bool
    u64Vec(std::string_view name, std::vector<std::uint64_t> &out)
    {
        const JsonValue *value = get(name);
        if (value == nullptr)
            return false;
        if (value->kind != JsonValue::Kind::Array)
            return fail(name, "expected an array of unsigned "
                              "integers");
        out.clear();
        for (const JsonValue &element : value->array) {
            std::uint64_t v = 0;
            if (!element.asU64(v))
                return fail(name, "expected an array of unsigned "
                                  "integers");
            out.push_back(v);
        }
        return true;
    }

    bool
    real(std::string_view name, double &out)
    {
        const JsonValue *value = get(name);
        if (value == nullptr)
            return false;
        if (!value->asReal(out))
            return fail(name, "expected a finite number");
        return true;
    }

    bool
    boolean(std::string_view name, bool &out)
    {
        const JsonValue *value = get(name);
        if (value == nullptr)
            return false;
        if (value->kind != JsonValue::Kind::Bool)
            return fail(name, "expected a boolean");
        out = value->boolean;
        return true;
    }

    bool
    str(std::string_view name, std::string &out)
    {
        const JsonValue *value = get(name);
        if (value == nullptr)
            return false;
        if (value->kind != JsonValue::Kind::String)
            return fail(name, "expected a string");
        out = value->string;
        return true;
    }

    /** Reject members the schema never consumed. */
    bool
    finish()
    {
        if (_obj == nullptr)
            return false;
        for (const auto &member : _obj->object) {
            bool consumed = false;
            for (const std::string_view name : _seen)
                consumed = consumed || name == member.first;
            if (!consumed)
                return fail(member.first, "unknown field");
        }
        return true;
    }

  private:
    bool
    fail(std::string_view name, std::string_view what)
    {
        _error = _context + "." + std::string(name) + ": " +
            std::string(what);
        _obj = nullptr;
        return false;
    }

    const JsonValue *_obj;
    std::string _context;
    std::string &_error;
    std::vector<std::string_view> _seen;
};

// ----- geometry sub-objects -----

void
appendCacheGeom(std::string &out, const CacheGeometry &geom)
{
    out += "{\"capacity_bytes\":";
    appendJsonU64(out, geom.capacityBytes);
    out += ",\"line_bytes\":";
    appendJsonU64(out, geom.lineBytes);
    out += ",\"assoc\":";
    appendJsonU64(out, geom.assoc);
    out.push_back('}');
}

bool
readCacheGeom(const JsonValue *value, const std::string &context,
              CacheGeometry &out, std::string &error)
{
    ObjectReader r(value, context, error);
    const bool ok = r.u64("capacity_bytes", out.capacityBytes) &&
        r.u64("line_bytes", out.lineBytes) &&
        r.u64("assoc", out.assoc);
    return ok && r.finish();
}

void
appendTlbGeom(std::string &out, const TlbGeometry &geom)
{
    out += "{\"entries\":";
    appendJsonU64(out, geom.entries);
    out += ",\"assoc\":";
    appendJsonU64(out, geom.assoc);
    out.push_back('}');
}

bool
readTlbGeom(const JsonValue *value, const std::string &context,
            TlbGeometry &out, std::string &error)
{
    ObjectReader r(value, context, error);
    const bool ok =
        r.u64("entries", out.entries) && r.u64("assoc", out.assoc);
    return ok && r.finish();
}

void
appendU64Array(std::string &out, std::string_view name,
               const std::vector<std::uint64_t> &values)
{
    appendJsonString(out, name);
    out += ":[";
    bool first = true;
    for (const std::uint64_t v : values) {
        if (!first)
            out.push_back(',');
        first = false;
        appendJsonU64(out, v);
    }
    out.push_back(']');
}

/** The fields both store keys of @p request start with: the
 * formats, os, seed, references, the ordered workload list and the
 * space. */
Fingerprint
measuredKeyPrefix(const AllocationRequest &request)
{
    Fingerprint fp;
    fp.u64("api.format_version", apiFormatVersion);
    fp.u64("store.format_version", ArtifactStore::formatVersion);
    fp.u64("trace.format_version", store::traceFormatVersion);
    fp.str("run.os", osKindName(request.os));
    fp.u64("run.seed", request.seed);
    fp.u64("run.references", request.references);
    fp.u64("workloads.n", request.workloads.size());
    for (const BenchmarkId id : request.workloads)
        benchmarkParams(id).fingerprint(fp);
    request.space.fingerprint(fp);
    return fp;
}

} // namespace

const char *
strategyName(Strategy strategy)
{
    return strategy == Strategy::Annealing ? "annealing"
                                           : "exhaustive";
}

bool
strategyFromName(std::string_view name, Strategy &out)
{
    if (name == "exhaustive") {
        out = Strategy::Exhaustive;
        return true;
    }
    if (name == "annealing") {
        out = Strategy::Annealing;
        return true;
    }
    return false;
}

bool
benchmarkFromName(std::string_view name, BenchmarkId &out)
{
    for (const BenchmarkId id : allBenchmarks()) {
        if (name == benchmarkName(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

bool
osKindFromName(std::string_view name, OsKind &out)
{
    for (const OsKind kind : {OsKind::Ultrix, OsKind::Mach}) {
        if (name == osKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

Fingerprint
AllocationRequest::responseKey() const
{
    Fingerprint fp = measuredKeyPrefix(*this);
    fp.u64("search.max_cache_ways", maxCacheWays);
    fp.real("search.budget_rbe", budgetRbe);
    fp.u64("search.top_k", topK);
    // Strategy and its own seed are content, not execution detail:
    // an annealing answer must never be served for an exhaustive
    // query (or for an annealing query with a different seed), so
    // they key the response. The annealing knobs are skipped for
    // exhaustive requests, where they cannot affect the answer.
    fp.str("search.strategy", strategyName(strategy));
    if (strategy == Strategy::Annealing) {
        fp.u64("anneal.seed", annealing.seed);
        fp.u64("anneal.chains", annealing.chains);
        fp.u64("anneal.iterations", annealing.iterations);
        fp.real("anneal.initial_temp", annealing.initialTemp);
        fp.real("anneal.final_temp", annealing.finalTemp);
    }
    fp.str("artifact", "response");
    return fp;
}

Fingerprint
AllocationRequest::measurementKey() const
{
    Fingerprint fp = measuredKeyPrefix(*this);
    fp.u64("measurement.format_version", measurementFormatVersion);
    MachineParams::decstation3100().fingerprint(fp);
    fp.str("artifact", "measurement");
    return fp;
}

std::string
encodeRequest(const AllocationRequest &request)
{
    std::string out = "{\"schema\":";
    appendJsonString(out, requestSchema);
    out += ",\"workloads\":[";
    bool first = true;
    for (const BenchmarkId id : request.workloads) {
        if (!first)
            out.push_back(',');
        first = false;
        appendJsonString(out, benchmarkName(id));
    }
    out += "],\"os\":";
    appendJsonString(out, osKindName(request.os));
    out += ",\"references\":";
    appendJsonU64(out, request.references);
    out += ",\"seed\":";
    appendJsonU64(out, request.seed);

    const ConfigSpace &s = request.space;
    out += ",\"space\":{";
    appendU64Array(out, "tlb_entries", s.tlbEntries);
    out.push_back(',');
    appendU64Array(out, "tlb_ways", s.tlbWays);
    out += ",\"tlb_full_assoc_max\":";
    appendJsonU64(out, s.tlbFullAssocMax);
    out.push_back(',');
    appendU64Array(out, "cache_kbytes", s.cacheKBytes);
    out.push_back(',');
    appendU64Array(out, "line_words", s.lineWords);
    out.push_back(',');
    appendU64Array(out, "cache_ways", s.cacheWays);
    out.push_back(',');
    appendU64Array(out, "victim_entries", s.victimEntries);
    out += ",\"victim_line_words\":";
    appendJsonU64(out, s.victimLineWords);
    out.push_back(',');
    appendU64Array(out, "wb_entries", s.wbEntries);
    out += ",\"wb_drain_cycles\":";
    appendJsonU64(out, s.wbDrainCycles);
    out.push_back(',');
    appendU64Array(out, "l2_kbytes", s.l2KBytes);
    out += ",\"l2_line_words\":";
    appendJsonU64(out, s.l2LineWords);
    out += ",\"l2_ways\":";
    appendJsonU64(out, s.l2Ways);
    out += ",\"hier_l1_line_words\":";
    appendJsonU64(out, s.hierL1LineWords);
    out += ",\"hier_l1_ways\":";
    appendJsonU64(out, s.hierL1Ways);
    out.push_back('}');

    out += ",\"max_cache_ways\":";
    appendJsonU64(out, request.maxCacheWays);
    out += ",\"budget_rbe\":";
    appendJsonReal(out, request.budgetRbe);
    out += ",\"strategy\":";
    appendJsonString(out, strategyName(request.strategy));
    out += ",\"annealing\":{\"seed\":";
    appendJsonU64(out, request.annealing.seed);
    out += ",\"chains\":";
    appendJsonU64(out, request.annealing.chains);
    out += ",\"iterations\":";
    appendJsonU64(out, request.annealing.iterations);
    out += ",\"initial_temp\":";
    appendJsonReal(out, request.annealing.initialTemp);
    out += ",\"final_temp\":";
    appendJsonReal(out, request.annealing.finalTemp);
    out += "},\"top_k\":";
    appendJsonU64(out, request.topK);
    out += ",\"threads\":";
    appendJsonU64(out, request.threads);
    out.push_back('}');
    return out;
}

bool
decodeRequest(std::string_view json, AllocationRequest &out,
              std::string &error)
{
    JsonValue doc;
    if (!parseJson(json, doc, error))
        return false;
    out = AllocationRequest();

    ObjectReader r(&doc, "request", error);
    std::string schema;
    if (!r.str("schema", schema))
        return false;
    if (schema != requestSchema) {
        error = "request.schema: expected \"" +
            std::string(requestSchema) + "\", got \"" + schema + "\"";
        return false;
    }

    const JsonValue *workloads = r.get("workloads");
    if (workloads == nullptr)
        return false;
    if (workloads->kind != JsonValue::Kind::Array) {
        error = "request.workloads: expected an array of benchmark "
                "names";
        return false;
    }
    out.workloads.clear();
    for (const JsonValue &element : workloads->array) {
        BenchmarkId id = BenchmarkId::Mpeg;
        if (element.kind != JsonValue::Kind::String ||
            !benchmarkFromName(element.string, id)) {
            error = "request.workloads: unknown benchmark name";
            return false;
        }
        out.workloads.push_back(id);
    }

    std::string name;
    if (!r.str("os", name))
        return false;
    if (!osKindFromName(name, out.os)) {
        error = "request.os: unknown OS personality \"" + name + "\"";
        return false;
    }
    if (!r.u64("references", out.references) ||
        !r.u64("seed", out.seed))
        return false;

    ConfigSpace &s = out.space;
    ObjectReader rs(r.get("space"), "request.space", error);
    const bool space_ok = rs.u64Vec("tlb_entries", s.tlbEntries) &&
        rs.u64Vec("tlb_ways", s.tlbWays) &&
        rs.u64("tlb_full_assoc_max", s.tlbFullAssocMax) &&
        rs.u64Vec("cache_kbytes", s.cacheKBytes) &&
        rs.u64Vec("line_words", s.lineWords) &&
        rs.u64Vec("cache_ways", s.cacheWays) &&
        rs.u64Vec("victim_entries", s.victimEntries) &&
        rs.u64("victim_line_words", s.victimLineWords) &&
        rs.u64Vec("wb_entries", s.wbEntries) &&
        rs.u64("wb_drain_cycles", s.wbDrainCycles) &&
        rs.u64Vec("l2_kbytes", s.l2KBytes) &&
        rs.u64("l2_line_words", s.l2LineWords) &&
        rs.u64("l2_ways", s.l2Ways) &&
        rs.u64("hier_l1_line_words", s.hierL1LineWords) &&
        rs.u64("hier_l1_ways", s.hierL1Ways);
    if (!space_ok || !rs.finish())
        return false;

    if (!r.u64("max_cache_ways", out.maxCacheWays) ||
        !r.real("budget_rbe", out.budgetRbe))
        return false;
    if (!r.str("strategy", name))
        return false;
    if (!strategyFromName(name, out.strategy)) {
        error = "request.strategy: unknown strategy \"" + name + "\"";
        return false;
    }

    ObjectReader ra(r.get("annealing"), "request.annealing", error);
    const bool anneal_ok = ra.u64("seed", out.annealing.seed) &&
        ra.u32("chains", out.annealing.chains) &&
        ra.u64("iterations", out.annealing.iterations) &&
        ra.real("initial_temp", out.annealing.initialTemp) &&
        ra.real("final_temp", out.annealing.finalTemp);
    if (!anneal_ok || !ra.finish())
        return false;

    if (!r.u64("top_k", out.topK) || !r.u32("threads", out.threads))
        return false;
    return r.finish();
}

std::string
encodeResponse(const AllocationResponse &response)
{
    std::string out = "{\"schema\":";
    appendJsonString(out, responseSchema);
    out += ",\"strategy\":";
    appendJsonString(out, strategyName(response.strategy));
    out += ",\"in_budget\":";
    appendJsonU64(out, response.inBudget);
    out += ",\"candidates\":";
    appendJsonU64(out, response.candidates);
    out += ",\"evaluations\":";
    appendJsonU64(out, response.evaluations);
    out += ",\"pruned_subspaces\":";
    appendJsonU64(out, response.prunedSubspaces);
    out += ",\"base_cpi\":";
    appendJsonReal(out, response.baseCpi);
    out += ",\"wb_cpi\":";
    appendJsonReal(out, response.wbCpi);
    out += ",\"other_cpi\":";
    appendJsonReal(out, response.otherCpi);
    out += ",\"allocations\":[";
    bool first = true;
    for (const Allocation &a : response.allocations) {
        if (!first)
            out.push_back(',');
        first = false;
        out += "{\"rank\":";
        appendJsonU64(out, a.rank);
        out += ",\"tlb\":";
        appendTlbGeom(out, a.tlb);
        out += ",\"icache\":";
        appendCacheGeom(out, a.icache);
        out += ",\"dcache\":";
        appendCacheGeom(out, a.dcache);
        out += ",\"area_rbe\":";
        appendJsonReal(out, a.areaRbe);
        out += ",\"cpi\":";
        appendJsonReal(out, a.cpi);
        out += ",\"tlb_cpi\":";
        appendJsonReal(out, a.tlbCpi);
        out += ",\"icache_cpi\":";
        appendJsonReal(out, a.icacheCpi);
        out += ",\"dcache_cpi\":";
        appendJsonReal(out, a.dcacheCpi);
        out += ",\"victim_entries\":";
        appendJsonU64(out, a.victimEntries);
        out += ",\"wb_entries\":";
        appendJsonU64(out, a.wbEntries);
        out += ",\"has_l2\":";
        out += a.hasL2 ? "true" : "false";
        out += ",\"unified\":";
        out += a.unified ? "true" : "false";
        out += ",\"l2\":";
        appendCacheGeom(out, a.l2);
        out += ",\"hierarchy_cpi\":";
        appendJsonReal(out, a.hierarchyCpi);
        out += ",\"wb_cpi\":";
        appendJsonReal(out, a.wbCpi);
        out.push_back('}');
    }
    out += "]}";
    return out;
}

bool
decodeResponse(std::string_view json, AllocationResponse &out,
               std::string &error)
{
    JsonValue doc;
    if (!parseJson(json, doc, error))
        return false;
    out = AllocationResponse();

    ObjectReader r(&doc, "response", error);
    std::string schema;
    if (!r.str("schema", schema))
        return false;
    if (schema != responseSchema) {
        error = "response.schema: expected \"" +
            std::string(responseSchema) + "\", got \"" + schema +
            "\"";
        return false;
    }
    std::string name;
    if (!r.str("strategy", name))
        return false;
    if (!strategyFromName(name, out.strategy)) {
        error = "response.strategy: unknown strategy \"" + name +
            "\"";
        return false;
    }
    const bool counts_ok = r.u64("in_budget", out.inBudget) &&
        r.u64("candidates", out.candidates) &&
        r.u64("evaluations", out.evaluations) &&
        r.u64("pruned_subspaces", out.prunedSubspaces) &&
        r.real("base_cpi", out.baseCpi) &&
        r.real("wb_cpi", out.wbCpi) &&
        r.real("other_cpi", out.otherCpi);
    if (!counts_ok)
        return false;

    const JsonValue *allocations = r.get("allocations");
    if (allocations == nullptr)
        return false;
    if (allocations->kind != JsonValue::Kind::Array) {
        error = "response.allocations: expected an array";
        return false;
    }
    out.allocations.clear();
    for (const JsonValue &element : allocations->array) {
        const std::string ctx = "response.allocations[" +
            std::to_string(out.allocations.size()) + "]";
        Allocation a;
        ObjectReader re(&element, ctx, error);
        std::uint64_t rank = 0;
        const bool fields_ok = re.u64("rank", rank) &&
            readTlbGeom(re.get("tlb"), ctx + ".tlb", a.tlb, error) &&
            readCacheGeom(re.get("icache"), ctx + ".icache", a.icache,
                          error) &&
            readCacheGeom(re.get("dcache"), ctx + ".dcache", a.dcache,
                          error) &&
            re.real("area_rbe", a.areaRbe) && re.real("cpi", a.cpi) &&
            re.real("tlb_cpi", a.tlbCpi) &&
            re.real("icache_cpi", a.icacheCpi) &&
            re.real("dcache_cpi", a.dcacheCpi) &&
            re.u64("victim_entries", a.victimEntries) &&
            re.u64("wb_entries", a.wbEntries) &&
            re.boolean("has_l2", a.hasL2) &&
            re.boolean("unified", a.unified) &&
            readCacheGeom(re.get("l2"), ctx + ".l2", a.l2, error) &&
            re.real("hierarchy_cpi", a.hierarchyCpi) &&
            re.real("wb_cpi", a.wbCpi);
        if (!fields_ok || !re.finish())
            return false;
        a.rank = std::size_t(rank);
        out.allocations.push_back(a);
    }
    return r.finish();
}

std::string
encodeError(std::string_view message)
{
    std::string out = "{\"schema\":";
    appendJsonString(out, errorSchema);
    out += ",\"error\":";
    appendJsonString(out, message);
    out.push_back('}');
    return out;
}

} // namespace oma::api
