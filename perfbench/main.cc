/**
 * @file
 * query_bench: the allocation-query benchmark program.
 *
 *   query_bench emit --workload W --seed N --lanes N
 *                    --setup FILE --requests FILE
 *   query_bench run  --workload W --setup FILE --requests FILE
 *                    --work DIR --seconds S --trace 0|1 --lanes N
 *                    --result FILE
 *
 * `emit` writes a workload's request lines (requests.hh). `run` sees
 * only those lines: it sets the workload up several times (each pass
 * on a fresh store, timed), then acts as one closed-loop client that
 * sends each batch through QueryEngine::answerBatch, the daemon's
 * path, and waits for the answers before sending the next. It checks
 * every answer and that the engine took the path the workload claims,
 * and writes its raw figures as JSON for run.py.
 *
 * With --trace 1 the engine gets an obs::Observation and LayerTracer
 * re-answers every batch stage by stage (layers.hh); the same batches
 * are then answered again without tracing on a twin store, which
 * gives the tracing overhead.
 */

#include <malloc.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/json.hh"
#include "api/query_engine.hh"
#include "layers.hh"
#include "requests.hh"
#include "support/clock.hh"

namespace
{

namespace fs = std::filesystem;
using namespace perfbench;
using oma::Clock;

/** Setup passes per run; setup_s is their median. */
constexpr unsigned setupPasses = 3;

struct Options
{
    std::string mode;
    Workload workload = Workload::Cold;
    std::uint64_t seed = 1;
    unsigned lanes = 1;
    std::string setupPath;
    std::string requestsPath;
    std::string workDir;
    double seconds = 10.0;
    bool trace = false;
    std::string resultPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "query_bench: " << why << "\n"
              << "usage: query_bench emit --workload W --seed N "
                 "--lanes N --setup FILE --requests FILE\n"
              << "       query_bench run --workload W --setup FILE "
                 "--requests FILE --work DIR --seconds S --trace 0|1 "
                 "--lanes N --result FILE\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " requires a value");
        const std::string value = argv[++i];
        const auto number = [&]() {
            char *end = nullptr;
            const double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || v < 0)
                usage("bad number for " + arg + ": " + value);
            return v;
        };
        if (arg == "--workload") {
            if (!workloadFromName(value, opt.workload))
                usage("unknown workload " + value);
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--lanes") {
            opt.lanes = unsigned(number());
        } else if (arg == "--setup") {
            opt.setupPath = value;
        } else if (arg == "--requests") {
            opt.requestsPath = value;
        } else if (arg == "--work") {
            opt.workDir = value;
        } else if (arg == "--seconds") {
            opt.seconds = number();
        } else if (arg == "--trace") {
            opt.trace = value == "1";
        } else if (arg == "--result") {
            opt.resultPath = value;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (opt.lanes == 0)
        usage("--lanes must be positive");
    return opt;
}

double
msSince(std::int64_t start_ns)
{
    return Clock::toMs(Clock::nowNs() - start_ns);
}

/** What identifies one version of a store file. ArtifactStore::put
 * renames a fresh file over the entry path, so a rewrite shows as a
 * new inode even when size and content stay the same. */
struct FileState
{
    std::uint64_t inode = 0;
    std::uint64_t bytes = 0;
    std::int64_t mtimeNs = 0;

    bool
    operator==(const FileState &o) const
    {
        return inode == o.inode && bytes == o.bytes && mtimeNs == o.mtimeNs;
    }
};

/** Every regular file under @p dir, by path. */
std::map<std::string, FileState>
snapshot(const std::string &dir)
{
    std::map<std::string, FileState> files;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        struct stat st{};
        if (entry.is_regular_file(ec) &&
            ::stat(entry.path().c_str(), &st) == 0)
            files[entry.path().string()] = {
                std::uint64_t(st.st_ino), std::uint64_t(st.st_size),
                std::int64_t(st.st_mtim.tv_sec) * 1'000'000'000 +
                    st.st_mtim.tv_nsec};
    }
    return files;
}

std::uint64_t
totalBytes(const std::map<std::string, FileState> &files)
{
    std::uint64_t bytes = 0;
    for (const auto &[path, state] : files)
        bytes += state.bytes;
    return bytes;
}

/** Paths added, removed or rewritten between two snapshots. */
std::set<std::string>
changedFiles(const std::map<std::string, FileState> &before,
             const std::map<std::string, FileState> &after)
{
    std::set<std::string> changed;
    for (const auto &[path, state] : after) {
        const auto it = before.find(path);
        if (it == before.end() || !(it->second == state))
            changed.insert(path);
    }
    for (const auto &[path, state] : before)
        if (after.count(path) == 0)
            changed.insert(path);
    return changed;
}

/** Reset the process's peak resident set to its current size, so a
 * later peakRssMb() covers only what runs after this call. Memory
 * freed earlier is handed back to the system first. */
bool
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return bool(clear);
}

/** Peak resident set since the last resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Answer checks. Every answer must decode as a response whose
 * allocations are non-empty, sorted by CPI, within the request's
 * budget and at most top-K long; an answer to a question asked before
 * must repeat the first answer byte for byte. The digest of each
 * answer, keyed by the answer's position in the generated stream
 * ("batch.line"), lets run.py compare against answers recorded
 * earlier; the position does not depend on the engine, so a change to
 * how the engine keys its store cannot hide a changed answer.
 */
class Checker
{
  public:
    /** @p responses is the engine's response store. */
    explicit Checker(const oma::ArtifactStore &responses)
        : _responses(responses)
    {
    }

    void
    check(const std::string &position, const std::string &line,
          const std::string &answer)
    {
        if (digests.count(position) == 0) {
            oma::Fingerprint digest;
            digest.str("answer", answer);
            digests[position] = digest.hex();
        }
        auto known = _questions.find(line);
        if (known == _questions.end()) {
            oma::api::AllocationRequest request;
            std::string error;
            if (!oma::api::decodeRequest(line, request, error)) {
                fail("request does not decode: " + error);
                return;
            }
            _measurements.insert(measurementText(request));
            responsePaths.insert(
                _responses.entryPath(request.responseKey()));
            known = _questions
                        .emplace(line,
                                 Question{request.responseKey().hex(),
                                          request.budgetRbe, request.topK,
                                          request.workloads.size()})
                        .first;
        }
        const Question &question = known->second;
        workloadsAsked += question.workloads;
        const auto first = _answers.find(question.key);
        if (first != _answers.end()) {
            if (first->second != answer)
                fail("answer differs from the first answer to the same "
                     "question");
            return;
        }
        _answers.emplace(question.key, answer);
        oma::api::AllocationResponse response;
        std::string error;
        if (!oma::api::decodeResponse(answer, response, error)) {
            fail("answer does not decode (" + error + "): " +
                 answer.substr(0, 160));
            return;
        }
        const auto &allocations = response.allocations;
        if (allocations.empty())
            return fail("answer has no allocation");
        if (question.topK != 0 && allocations.size() > question.topK)
            return fail("answer is longer than top_k");
        for (std::size_t i = 0; i < allocations.size(); ++i) {
            if (i > 0 && allocations[i].cpi < allocations[i - 1].cpi)
                return fail("allocations are not sorted by CPI");
            if (allocations[i].areaRbe > question.budget)
                return fail("allocation exceeds the budget");
        }
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 10)
            notes.push_back(why);
    }

    /** Distinct measurements among the questions checked. */
    [[nodiscard]] std::size_t
    measurements() const
    {
        return _measurements.size();
    }

    std::uint64_t failed = 0;
    std::uint64_t workloadsAsked = 0;
    std::vector<std::string> notes;
    std::map<std::string, std::string> digests; //!< By position.
    /** Store paths of the response entries of every question. */
    std::set<std::string> responsePaths;

  private:
    /** What the checks need of one request line. */
    struct Question
    {
        std::string key; //!< Response key, hex.
        double budget;
        std::uint64_t topK;
        std::size_t workloads;
    };

    std::unordered_map<std::string, Question> _questions; //!< By line.
    std::unordered_map<std::string, std::string> _answers; //!< By key.
    const oma::ArtifactStore &_responses;
    std::set<std::string> _measurements;
};

oma::api::QueryEngineConfig
engineConfig(const std::string &store_dir, unsigned lanes)
{
    oma::api::QueryEngineConfig config;
    config.storeDir = store_dir;
    config.maxInflight = lanes;
    config.maxBatch = 64;
    return config;
}

/** Answer each setup line as its own batch; false on any error. */
bool
answerSetup(oma::api::QueryEngine &engine,
            const std::vector<Batch> &setup)
{
    bool ok = true;
    for (const Batch &batch : setup) {
        for (const std::string &answer : engine.answerBatch(batch)) {
            oma::api::AllocationResponse response;
            std::string error;
            ok = ok && oma::api::decodeResponse(answer, response, error);
        }
    }
    return ok;
}

/** @p value as a JSON number with every significant digit. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
appendNumber(std::string &out, const char *name, double value)
{
    out += ",\"";
    out += name;
    out += "\":";
    out += jsonNumber(value);
}

void
appendList(std::string &out, const char *name,
           const std::vector<double> &values)
{
    out += ",\"";
    out += name;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out.push_back(',');
        out += jsonNumber(values[i]);
    }
    out.push_back(']');
}

int
emit(const Options &opt)
{
    if (opt.setupPath.empty() || opt.requestsPath.empty())
        usage("emit needs --setup and --requests");
    const GeneratedWorkload generated =
        generate(opt.workload, opt.seed, opt.lanes);
    std::vector<Batch> setup;
    for (const std::string &line : generated.setup)
        setup.push_back({line});
    writeBatches(opt.setupPath, setup);
    writeBatches(opt.requestsPath, generated.batches);
    return 0;
}

int
run(const Options &opt)
{
    if (opt.setupPath.empty() || opt.requestsPath.empty() ||
        opt.workDir.empty() || opt.resultPath.empty())
        usage("run needs --setup, --requests, --work and --result");
    std::vector<Batch> setup, batches;
    if (!readBatches(opt.setupPath, setup) ||
        !readBatches(opt.requestsPath, batches) || batches.empty())
        usage("cannot read the request files");
    const unsigned lanes = opt.lanes;
    fs::create_directories(opt.workDir);
    // Every store lives under the work directory; an inherited
    // OMA_STORE_DIR must not give the storeless warm-up one.
    ::unsetenv("OMA_STORE_DIR");

    // Setup, several times over, each pass on a fresh store. The
    // last two stores survive: the run's store and, for the traced
    // run, its untraced twin.
    std::vector<double> setup_s;
    std::vector<std::string> stores;
    bool setup_ok = true;
    for (unsigned pass = 0; pass < setupPasses; ++pass) {
        const std::string dir =
            opt.workDir + "/store-" + std::to_string(pass);
        fs::remove_all(dir);
        const std::int64_t start = Clock::nowNs();
        if (opt.workload == Workload::Cold) {
            // A storeless warm-up; the run's store stays empty.
            {
                oma::api::QueryEngine warm(engineConfig("", lanes));
                setup_ok = answerSetup(warm, setup) && setup_ok;
            }
            const oma::api::QueryEngine fresh(engineConfig(dir, lanes));
        } else {
            oma::api::QueryEngine engine(engineConfig(dir, lanes));
            setup_ok = answerSetup(engine, setup) && setup_ok;
        }
        setup_s.push_back(Clock::toSeconds(Clock::nowNs() - start));
        stores.push_back(dir);
        if (pass >= 2)
            fs::remove_all(stores[pass - 2]);
    }
    const std::string store_dir = stores.back();
    const std::string twin_dir = stores[stores.size() - 2];

    std::unique_ptr<LayerTracer> tracer;
    if (opt.trace) {
        tracer = std::make_unique<LayerTracer>(opt.workDir + "/side",
                                               store_dir, lanes);
        if (opt.workload == Workload::WarmSweep)
            for (const Batch &batch : setup)
                tracer->prime(batch.front());
    }

    // The closed loop: one client, the next batch only after the
    // previous answers arrive; runs end on a whole shape cycle.
    oma::api::QueryEngine engine(engineConfig(store_dir, lanes));
    const std::map<std::string, FileState> files_before =
        snapshot(store_dir);
    const std::size_t cycle = cycleLength(opt.workload, batches);
    const bool repeats = opt.workload == Workload::FullyWarm;
    Checker checker(*engine.store());
    // Reserved, not touched: the samples become resident only as they
    // are written, and never move. Their bytes are taken off
    // peak_rss_mb, which would otherwise grow with throughput.
    std::vector<double> latency_ms;
    latency_ms.reserve(std::size_t(opt.seconds * 200'000) + 1024);
    std::uint64_t lines = 0, distinct_lines = 0;
    bool exhausted = false;
    std::size_t sent = 0;
    // peak_rss_mb is the timed loop's, not setup's.
    const bool rss_reset = resetPeakRss();
    const std::int64_t loop_start = Clock::nowNs();
    for (;; ++sent) {
        if (sent == batches.size() && !repeats) {
            exhausted = true;
            break;
        }
        const Batch &batch = batches[sent % batches.size()];
        std::unique_ptr<oma::obs::Observation> observation;
        if (tracer)
            observation = std::make_unique<oma::obs::Observation>();
        const std::int64_t start = Clock::nowNs();
        const std::vector<std::string> answers =
            engine.answerBatch(batch, observation.get());
        const double ms = msSince(start);
        latency_ms.push_back(ms);
        lines += batch.size();
        distinct_lines +=
            std::set<std::string>(batch.begin(), batch.end()).size();
        const std::string position =
            std::to_string(sent % batches.size()) + ".";
        for (std::size_t i = 0; i < batch.size(); ++i)
            checker.check(position + std::to_string(i), batch[i],
                          answers[i]);
        if (tracer)
            for (const std::string &why : tracer->reanswer(
                     engine, batch, answers, *observation, ms))
                checker.fail(why);
        if ((sent + 1) % cycle == 0 &&
            Clock::toSeconds(Clock::nowNs() - loop_start) >= opt.seconds) {
            ++sent;
            break;
        }
    }
    const double peak_rss_mb =
        peakRssMb() -
        double(latency_ms.size() * sizeof(double)) / (1024.0 * 1024.0);

    // Path checks: the run is invalid unless the engine took the path
    // the workload claims. The response store's own counters and the
    // store's files need no observation.
    std::vector<std::string> path_errors;
    const auto expect = [&path_errors](bool ok, const std::string &what) {
        if (!ok)
            path_errors.push_back(what);
    };
    expect(rss_reset, "cannot reset the peak resident set through "
                      "/proc/self/clear_refs");
    const oma::StoreStatsSnapshot responses = engine.store()->stats();
    const std::map<std::string, FileState> files_after =
        snapshot(store_dir);
    const std::set<std::string> changed =
        changedFiles(files_before, files_after);
    switch (opt.workload) {
      case Workload::Cold:
        expect(responses.writes == lines && responses.hits == 0,
               "cold: every question must be computed");
        break;
      case Workload::WarmSweep:
        expect(responses.writes == lines && responses.hits == 0,
               "warm-sweep: every question must be new");
        expect(std::all_of(changed.begin(), changed.end(),
                           [&checker](const std::string &path) {
                               return checker.responsePaths.count(path) !=
                                   0;
                           }),
               "warm-sweep: the only store writes must be responses");
        break;
      case Workload::FullyWarm:
        expect(responses.hits == distinct_lines && responses.writes == 0,
               "fully-warm: every question must be served stored");
        expect(changed.empty(),
               "fully-warm: the store must not change");
        break;
    }
    std::map<std::string, LayerMetric> layers;
    if (tracer) {
        const oma::obs::MetricRegistry &c = tracer->engineCounters();
        switch (opt.workload) {
          case Workload::Cold:
            expect(c.counter("serve/computed") == lines,
                   "cold: serve/computed must equal the questions");
            expect(c.counter("sweep/records") == checker.workloadsAsked,
                   "cold: sweep/records must equal workloads x questions");
            break;
          case Workload::WarmSweep:
            expect(c.counter("sweep/records") == 0,
                   "warm-sweep: the run must record nothing");
            expect(c.counter("store/writes") == 0,
                   "warm-sweep: sweeps must write nothing");
            break;
          case Workload::FullyWarm:
            expect(c.counter("serve/warm_hits") +
                           c.counter("serve/dedup_hits") ==
                       lines,
                   "fully-warm: warm_hits + dedup_hits must equal the "
                   "questions");
            break;
        }
        // The same batches again, untraced, on the twin store.
        oma::api::QueryEngine twin(engineConfig(twin_dir, lanes));
        double untraced_ms = 0.0;
        for (std::size_t b = 0; b < sent; ++b) {
            const std::int64_t start = Clock::nowNs();
            static_cast<void>(
                twin.answerBatch(batches[b % batches.size()]));
            untraced_ms += msSince(start);
        }
        layers = tracer->metrics(untraced_ms, responses);
    }

    const std::uint64_t store_bytes = totalBytes(files_after);
    // The stored measurements alone: warm-sweep writes a response per
    // question, so counting responses would grow with throughput.
    std::uint64_t response_bytes = 0;
    for (const auto &[path, state] : files_after)
        if (checker.responsePaths.count(path) != 0)
            response_bytes += state.bytes;

    std::string out = "{\"lines\":" + jsonNumber(double(lines));
    appendNumber(out, "cycle", double(cycle));
    appendNumber(out, "failed", double(checker.failed));
    appendNumber(out, "peak_rss_mb", peak_rss_mb);
    appendNumber(out, "store_bytes", double(store_bytes));
    appendNumber(out, "measurement_bytes",
                 double(store_bytes - response_bytes));
    appendNumber(out, "measurements", double(checker.measurements()));
    out += std::string(",\"setup_ok\":") + (setup_ok ? "true" : "false");
    out += std::string(",\"exhausted\":") + (exhausted ? "true" : "false");
    appendList(out, "setup_s", setup_s);
    appendList(out, "latency_ms", latency_ms);
    const auto strings = [&out](const char *name,
                                const std::vector<std::string> &items) {
        out += ",\"";
        out += name;
        out += "\":[";
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            oma::api::appendJsonString(out, items[i]);
        }
        out.push_back(']');
    };
    strings("path_errors", path_errors);
    strings("failures", checker.notes);
    out += ",\"digests\":{";
    bool first = true;
    for (const auto &[key, digest] : checker.digests) {
        if (!first)
            out.push_back(',');
        first = false;
        oma::api::appendJsonString(out, key);
        out.push_back(':');
        oma::api::appendJsonString(out, digest);
    }
    out += "},\"layers\":{";
    first = true;
    for (const auto &[name, metric] : layers) {
        if (!first)
            out.push_back(',');
        first = false;
        oma::api::appendJsonString(out, name);
        out += ":{\"value\":" + jsonNumber(metric.value) +
            ",\"unit\":";
        oma::api::appendJsonString(out, metric.unit);
        out.push_back('}');
    }
    out += "}}\n";
    std::ofstream(opt.resultPath, std::ios::trunc) << out;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    if (opt.mode == "emit")
        return emit(opt);
    if (opt.mode == "run")
        return run(opt);
    usage("unknown mode " + opt.mode);
}
