/**
 * @file
 * End-to-end oma_serve tests: the daemon binary itself, driven over
 * its stdin/stdout wire (--once) or its Unix socket exactly as a
 * client would.
 *
 * Pins the serving contract's headline property: a Table-style
 * allocation query answered cold, answered store-warm, answered as a
 * duplicate line of one batch, and answered at a different thread
 * count all yield bitwise-identical response lines. In socket mode, a
 * client that hangs up without reading, stalls mid-line or sends more
 * than a connection may must cost only its own connection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/query_engine.hh"
#include "api/request.hh"
#include "tests/api/json_path.hh"

namespace oma::api
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch directory. */
std::string
scratchDir(const std::string &name)
{
    const std::string root = testing::TempDir() + "/oma_serve_" +
        name + "." + std::to_string(::getpid());
    fs::remove_all(root);
    fs::create_directories(root);
    return root;
}

/** @p output cut into its newline-separated lines. */
std::vector<std::string>
splitLines(const std::string &output)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < output.size()) {
        const std::size_t end = output.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(output.substr(start));
            break;
        }
        lines.push_back(output.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

/** Run `oma_serve --once --store-dir store_dir` with @p input on
 * stdin; returns the stdout lines. */
std::vector<std::string>
serveOnce(const std::string &store_dir, const std::string &input)
{
    const std::string dir = scratchDir("io");
    const std::string in_path = dir + "/request.ndjson";
    {
        std::ofstream in(in_path, std::ios::binary);
        in << input;
    }
    // Reports are noise here; the daemon's own counters are covered
    // through QueryEngine tests and the CI smoke job.
    const std::string command = "OMA_RUN_REPORT=0 '" OMA_SERVE_BIN
        "' --once --store-dir '" + store_dir + "' < '" + in_path +
        "' 2>/dev/null";
    FILE *pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        output.append(buffer, got);
    const int status = ::pclose(pipe);
    EXPECT_EQ(status, 0) << output;
    fs::remove_all(dir);
    return splitLines(output);
}

/** A small but real allocation query (a scaled-down Table 6: full
 * budget, exhaustive ranking, one workload). */
AllocationRequest
table6Query()
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
    request.topK = 3;
    request.threads = 1;
    return request;
}

TEST(ServeOnce, ColdWarmAndDuplicateAnswersAreBitwiseIdentical)
{
    const std::string store = scratchDir("store");
    const std::string line = encodeRequest(table6Query());

    // Cold: compute through the simulators.
    const std::vector<std::string> cold = serveOnce(store, line + "\n");
    ASSERT_EQ(cold.size(), 1u);
    AllocationResponse response;
    std::string error;
    ASSERT_TRUE(decodeResponse(cold.front(), response, error))
        << error;
    EXPECT_FALSE(response.allocations.empty());
    EXPECT_GT(response.inBudget, 0u);

    // Warm: a fresh daemon process over the same store.
    const std::vector<std::string> warm = serveOnce(store, line + "\n");
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(warm.front(), cold.front());

    // Duplicates in one batch: one computation fanned out — and the
    // same bytes again, through yet another store (fresh cold path).
    const std::string fresh = scratchDir("store2");
    const std::vector<std::string> batch =
        serveOnce(fresh, line + "\n" + line + "\n" + line + "\n");
    ASSERT_EQ(batch.size(), 3u);
    for (const std::string &answer : batch)
        EXPECT_EQ(answer, cold.front());

    fs::remove_all(store);
    fs::remove_all(fresh);
}

TEST(ServeOnce, ThreadCountIsInvisibleInTheAnswer)
{
    const std::string store = scratchDir("threads");
    AllocationRequest request = table6Query();
    request.threads = 1;
    const std::string serial = encodeRequest(request);
    request.threads = 4;
    const std::string parallel = encodeRequest(request);
    ASSERT_NE(serial, parallel); // the wire lines differ...

    const std::vector<std::string> one = serveOnce(store, serial + "\n");
    // Separate store: force the 4-thread run through the cold path
    // rather than a warm hit keyed by the (threads-blind) fingerprint.
    const std::string other = scratchDir("threads4");
    const std::vector<std::string> four =
        serveOnce(other, parallel + "\n");
    ASSERT_EQ(one.size(), 1u);
    ASSERT_EQ(four.size(), 1u);
    EXPECT_EQ(one.front(), four.front()); // ...the answers do not
    fs::remove_all(store);
    fs::remove_all(other);
}

TEST(ServeOnce, MalformedLinesEarnErrorsInOrder)
{
    const std::string store = scratchDir("errors");
    const std::string good = encodeRequest(table6Query());
    const std::vector<std::string> lines = serveOnce(
        store, "this is not json\n" + good + "\n{\"schema\":\"x\"}\n");
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("oma-error-v1"), std::string::npos);
    AllocationResponse response;
    std::string error;
    EXPECT_TRUE(decodeResponse(lines[1], response, error)) << error;
    EXPECT_NE(lines[2].find("oma-error-v1"), std::string::npos);
    fs::remove_all(store);
}

TEST(ServeOnce, UnbuildableGeometryEarnsAnErrorNotAnExit)
{
    // Schema-valid requests whose space the simulators cannot build.
    // Each used to fatal() the daemon mid-batch, so a good/bad/good
    // batch exited 1 with no output at all; now the bad line earns an
    // error naming its field and the good lines are still answered.
    struct Case
    {
        const char *field;
        void (*spoil)(AllocationRequest &);
    };
    const Case cases[] = {
        {"cache_kbytes",
         [](AllocationRequest &r) { r.space.cacheKBytes = {3}; }},
        {"victim_line_words",
         [](AllocationRequest &r) {
             r.space.victimEntries = {4};
             r.space.victimLineWords = 0;
         }},
        {"hier_l1_ways",
         [](AllocationRequest &r) {
             r.space.l2KBytes = {64};
             r.space.hierL1Ways = 3;
         }},
        // Sizes past the request limits: each used to end the daemon
        // with std::bad_alloc and no output at all.
        {"cache_kbytes",
         [](AllocationRequest &r) { r.space.cacheKBytes = {1ULL << 30}; }},
        {"tlb_entries",
         [](AllocationRequest &r) { r.space.tlbEntries = {1ULL << 40}; }},
        {"l2_kbytes",
         [](AllocationRequest &r) { r.space.l2KBytes = {1ULL << 30}; }},
        {"victim_entries",
         [](AllocationRequest &r) {
             r.space.victimEntries = {1ULL << 40};
         }},
        // Line bytes x ways wrapped to 0, so a zero-set geometry
        // passed the check and the replay ended the daemon with
        // SIGSEGV and no output at all.
        {"l2_ways",
         [](AllocationRequest &r) {
             r.space.l2KBytes = {64};
             r.space.l2Ways = 1ULL << 63;
         }},
        {"hier_l1_ways",
         [](AllocationRequest &r) {
             r.space.l2KBytes = {64};
             r.space.hierL1Ways = 1ULL << 63;
         }},
        // Spaces past the array and candidate caps: the first two
        // ended the daemon with std::bad_alloc and no output under a
        // 3-GB address-space limit; the third (about 10^12
        // candidates) gave no line within 30 s.
        {"tlb_entries",
         [](AllocationRequest &r) {
             r.space.tlbEntries.assign(8000, 64);
             r.space.tlbWays.assign(8000, 1);
         }},
        {"cache_kbytes",
         [](AllocationRequest &r) {
             r.space.cacheKBytes.assign(3000, 2);
             r.space.lineWords.assign(3000, 4);
             r.space.cacheWays.assign(3000, 1);
         }},
        {"candidates",
         [](AllocationRequest &r) {
             r.space.cacheKBytes.assign(64, 2);
             r.space.lineWords.assign(64, 4);
             r.space.cacheWays.assign(64, 1);
         }},
        // Caches wider than the 8 ways the sweep measures: the first
        // was answered with 0 candidates, the second ranked only its
        // 2-way caches.
        {"cache_ways",
         [](AllocationRequest &r) {
             r.space.cacheWays = {16};
             r.maxCacheWays = 16;
         }},
        {"cache_ways",
         [](AllocationRequest &r) { r.space.cacheWays = {2, 16}; }},
    };
    const std::string good = encodeRequest(table6Query());
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field);
        AllocationRequest bad = table6Query();
        c.spoil(bad);
        const std::string store = scratchDir("geometry");
        const std::vector<std::string> lines = serveOnce(
            store, good + "\n" + encodeRequest(bad) + "\n" + good + "\n");
        ASSERT_EQ(lines.size(), 3u);
        AllocationResponse response;
        std::string error;
        EXPECT_TRUE(decodeResponse(lines[0], response, error)) << error;
        EXPECT_EQ(lines[2], lines[0]);
        EXPECT_NE(lines[1].find("oma-error-v1"), std::string::npos);
        EXPECT_NE(lines[1].find(c.field), std::string::npos) << lines[1];
        fs::remove_all(store);
    }
}

/** Where the value of member @p path of @p line begins: the first
 * `"field":` of a plain field, or the first one after `"object":` of
 * an `object.field` path. npos when there is none. */
std::size_t
fieldAt(const std::string &line, const std::string &path)
{
    const std::size_t dot = path.find('.');
    const std::size_t from = dot == std::string::npos
        ? 0
        : line.find("\"" + path.substr(0, dot) + "\":");
    const std::string key = "\"" + path.substr(dot + 1) + "\":";
    const std::size_t start = line.find(key, from);
    return start == std::string::npos ? start : start + key.size();
}

/** @p line with the value of member @p path (fieldAt()) replaced by
 * @p value: an array whole, anything else up to the next ',' or '}'. */
std::string
withField(std::string line, const std::string &path,
          const std::string &value)
{
    const std::size_t from = fieldAt(line, path);
    EXPECT_NE(from, std::string::npos) << path;
    if (from == std::string::npos)
        return line;
    const std::size_t to = line[from] == '['
        ? line.find(']', from) + 1
        : line.find_first_of(",}", from);
    return line.replace(from, to - from, value);
}

TEST(ServeOnce, OutOfRangeThreadsAndChainsEarnErrorsNotAnAbort)
{
    // Values past 2^32 used to be truncated (4294967297 ran 1 lane or
    // 1 chain); values that fit but exceed the engine's limits used
    // to end the daemon with std::bad_alloc and no output at all, and
    // 2^40 references or 2^32 annealing iterations ran without an
    // answer for as long as anyone waited.
    AllocationRequest annealing = table6Query();
    annealing.strategy = Strategy::Annealing;
    annealing.annealing.iterations = 1;
    const std::string exhaustive = encodeRequest(table6Query());
    const std::string annealed = encodeRequest(annealing);
    struct Case
    {
        const char *field;
        std::string line;
    };
    const Case cases[] = {
        {"threads", withField(exhaustive, "threads", "4294967297")},
        {"chains", withField(annealed, "chains", "4294967297")},
        {"threads", withField(exhaustive, "threads", "4294967295")},
        {"chains", withField(annealed, "chains", "4294967295")},
        {"references",
         withField(exhaustive, "references", "1099511627776")},
        {"references",
         withField(exhaustive, "references",
                   std::to_string(QueryEngine::maxReferences + 1))},
        // 2^32 proposals per chain gave no answer within 20 s.
        {"iterations", withField(annealed, "iterations", "4294967296")},
        {"iterations",
         withField(annealed, "iterations",
                   std::to_string(QueryEngine::maxAnnealingIterations +
                                  1))},
        // top_k 0 listed every in-budget allocation: 110 MB on one
        // line for Table 6's space under an unbounded budget.
        {"top_k", withField(exhaustive, "top_k", "0")},
        {"top_k", withField(exhaustive, "top_k",
                            std::to_string(QueryEngine::maxTopK + 1))},
    };
    constexpr std::size_t n_cases = std::size(cases);
    std::string input = exhaustive + "\n";
    for (const Case &c : cases)
        input += c.line + "\n";
    input += exhaustive + "\n";

    const std::string store = scratchDir("limits");
    const std::vector<std::string> lines = serveOnce(store, input);
    ASSERT_EQ(lines.size(), n_cases + 2);
    AllocationResponse response;
    std::string error;
    EXPECT_TRUE(decodeResponse(lines[0], response, error)) << error;
    EXPECT_EQ(lines[n_cases + 1], lines[0]);
    for (std::size_t i = 0; i < n_cases; ++i) {
        SCOPED_TRACE(cases[i].line);
        EXPECT_NE(lines[i + 1].find("oma-error-v1"), std::string::npos);
        EXPECT_NE(lines[i + 1].find(cases[i].field), std::string::npos)
            << lines[i + 1];
    }
    fs::remove_all(store);
}

TEST(ServeOnce, SingleFieldMutationsEarnOneLineEach)
{
    // The request fuzzer. From a small request whose every space
    // field reaches a simulator, each line changes one field: every
    // number to 0, 1, 3, 2^32 and 2^63 (the annealing ones under both
    // strategies), and every space array to empty, to each of those
    // values alone, to its values twice over and to the 64 powers of
    // two. Each line must earn exactly one line back, an answer or an
    // oma-error-v1, and the daemon must exit 0. No line starts many
    // threads: `threads` of 2^32 and 2^63 fail decoding, and 0, 1
    // and 3 start at most the hardware lane count.
    AllocationRequest request = table6Query();
    request.references = 2000;
    request.space.victimEntries = {4};
    request.space.wbEntries = {2, 4};
    request.space.l2KBytes = {16};
    const std::string exhaustive = encodeRequest(request);
    request.strategy = Strategy::Annealing;
    const std::string annealed = encodeRequest(request);

    const std::string values[] = {"0", "1", "3", "4294967296",
                                  "9223372036854775808"};
    std::vector<std::string> lines;
    for (const char *path :
         {"references", "seed", "max_cache_ways", "budget_rbe", "top_k",
          "threads", "space.tlb_full_assoc_max",
          "space.victim_line_words", "space.wb_drain_cycles",
          "space.l2_line_words", "space.l2_ways",
          "space.hier_l1_line_words", "space.hier_l1_ways"})
        for (const std::string &value : values)
            lines.push_back(withField(exhaustive, path, value));
    for (const char *path :
         {"annealing.seed", "annealing.chains", "annealing.iterations",
          "annealing.initial_temp", "annealing.final_temp"})
        for (const std::string &value : values)
            for (const std::string &base : {exhaustive, annealed})
                lines.push_back(withField(base, path, value));
    std::string powers = "[1";
    for (unsigned bit = 1; bit < 64; ++bit)
        powers += "," + std::to_string(1ULL << bit);
    powers += "]";
    for (const char *field :
         {"tlb_entries", "tlb_ways", "cache_kbytes", "line_words",
          "cache_ways", "victim_entries", "wb_entries", "l2_kbytes"}) {
        const std::string path = std::string("space.") + field;
        const std::size_t from = fieldAt(exhaustive, path) + 1;
        const std::string own =
            exhaustive.substr(from, exhaustive.find(']', from) - from);
        lines.push_back(withField(exhaustive, path, "[]"));
        for (const std::string &value : values)
            lines.push_back(withField(exhaustive, path, "[" + value + "]"));
        lines.push_back(
            withField(exhaustive, path, "[" + own + "," + own + "]"));
        lines.push_back(withField(exhaustive, path, powers));
    }

    const std::string store = scratchDir("fuzz");
    const std::size_t batch = QueryEngineConfig().maxBatch;
    for (std::size_t first = 0; first < lines.size(); first += batch) {
        const std::size_t last = std::min(lines.size(), first + batch);
        std::string input;
        for (std::size_t i = first; i < last; ++i)
            input += lines[i] + "\n";
        const std::vector<std::string> answers = serveOnce(store, input);
        ASSERT_EQ(answers.size(), last - first) << "batch at " << first;
        for (std::size_t i = first; i < last; ++i) {
            const std::string &answer = answers[i - first];
            AllocationResponse response;
            std::string error;
            EXPECT_TRUE(answer.find("oma-error-v1") != std::string::npos ||
                        decodeResponse(answer, response, error))
                << lines[i] << "\n" << answer;
        }
    }
    fs::remove_all(store);
}

/** A connected client socket to @p path, or -1 (errno set). */
int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // oma-lint: allow(cast-audit): POSIX connect takes the generic
    // sockaddr view of sockaddr_un; sizeof passes the real type.
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

/** Send all of @p text on @p fd (never raising SIGPIPE). */
bool
sendAll(int fd, const std::string &text)
{
    std::size_t sent = 0;
    while (sent < text.size()) {
        const ssize_t n = ::send(fd, text.data() + sent,
                                 text.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += std::size_t(n);
    }
    return true;
}

/** One client session on connection @p fd: send @p text, half-close,
 * read to EOF, close. A daemon that sends nothing for 30 s ends the
 * read, so a stalled daemon fails the test instead of hanging it. */
std::string
converse(int fd, const std::string &text)
{
    EXPECT_GE(fd, 0) << "connect: " << std::strerror(errno);
    if (fd < 0)
        return "";
    timeval timeout{};
    timeout.tv_sec = 30;
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    EXPECT_TRUE(sendAll(fd, text));
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buffer[4096];
    ssize_t got = 0;
    while ((got = ::read(fd, buffer, sizeof buffer)) > 0)
        reply.append(buffer, std::size_t(got));
    ::close(fd);
    return reply;
}

/**
 * An oma_serve daemon listening on a socket in its own scratch
 * directory (store, log and run report live there too). Killed and
 * reaped on destruction unless shutdown() saw it exit.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string &name, const std::string &args = "")
        : dir(scratchDir(name)), socket(dir + "/serve.sock")
    {
        const std::string command = "exec env OMA_RUN_REPORT_DIR='" +
            dir + "' '" OMA_SERVE_BIN "' --socket '" + socket +
            "' --store-dir '" + dir + "/store' " + args + " 2>'" + dir +
            "/serve.log'";
        _pid = ::fork();
        if (_pid == 0) {
            ::execl("/bin/sh", "sh", "-c", command.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    ~Daemon()
    {
        if (_pid > 0) {
            ::kill(_pid, SIGKILL);
            ::waitpid(_pid, nullptr, 0);
        }
        fs::remove_all(dir);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    [[nodiscard]] bool started() const { return _pid > 0; }

    /** A connection to the daemon, retried while it starts; -1 if it
     * never listened. */
    [[nodiscard]] int
    connect() const
    {
        int fd = -1;
        for (int attempt = 0; attempt < 200 && fd < 0; ++attempt) {
            fd = connectTo(socket);
            if (fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        }
        return fd;
    }

    /** Send a shutdown line and expect its ack, a clean exit and the
     * socket file gone. */
    void
    shutdown()
    {
        const std::vector<std::string> ack = splitLines(converse(
            connect(),
            "{\"schema\":\"oma-control-v1\",\"cmd\":\"shutdown\"}\n"));
        ASSERT_EQ(ack.size(), 1u);
        EXPECT_NE(ack.front().find("oma-control-v1"), std::string::npos);
        int status = 0;
        pid_t waited = 0;
        for (int attempt = 0; attempt < 600 && waited == 0; ++attempt) {
            waited = ::waitpid(_pid, &status, WNOHANG);
            if (waited == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        }
        ASSERT_EQ(waited, _pid) << "daemon did not exit after shutdown";
        _pid = 0;
        ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
        EXPECT_EQ(WEXITSTATUS(status), 0);
        EXPECT_FALSE(fs::exists(socket));
    }

    /** The daemon's standard error so far. */
    [[nodiscard]] std::string
    log() const
    {
        std::stringstream text;
        text << std::ifstream(dir + "/serve.log").rdbuf();
        return text.str();
    }

    /** serve/client_errors in the run report saved at shutdown. */
    [[nodiscard]] double
    clientErrors() const
    {
        std::stringstream report;
        report << std::ifstream(dir + "/BENCH_oma_serve.json").rdbuf();
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(report.str(), doc, error)) << error;
        return jsonNumber(doc, "counters.serve/client_errors");
    }

    const std::string dir;
    const std::string socket;

  private:
    pid_t _pid = -1;
};

/** Expect @p reply to be exactly one decodable answer line. */
void
expectOneAnswer(const std::string &reply)
{
    const std::vector<std::string> answers = splitLines(reply);
    ASSERT_EQ(answers.size(), 1u) << reply;
    AllocationResponse response;
    std::string error;
    EXPECT_TRUE(decodeResponse(answers.front(), response, error))
        << error;
}

TEST(ServeSocket, ClientHangingUpEarlyDoesNotKillTheDaemon)
{
    Daemon daemon("socket");
    ASSERT_TRUE(daemon.started());

    // The first client to get through sends 50 questions, half-closes
    // and hangs up without reading, so the daemon's reply write fails.
    const int rude = daemon.connect();
    ASSERT_GE(rude, 0) << "daemon never listened: "
                       << std::strerror(errno);
    std::string questions;
    const std::string line = encodeRequest(table6Query());
    for (int i = 0; i < 50; ++i)
        questions += line + "\n";
    EXPECT_TRUE(sendAll(rude, questions));
    ::shutdown(rude, SHUT_WR);
    ::close(rude);

    // The daemon is still there for the next client: exactly one
    // answer line for its one question, and a shutdown line makes it
    // exit cleanly.
    expectOneAnswer(converse(daemon.connect(), line + "\n"));
    daemon.shutdown();

    // The dropped client was warned about and counted, and the run
    // report was saved on the way out.
    EXPECT_NE(daemon.log().find("dropping client"), std::string::npos)
        << daemon.log();
    EXPECT_EQ(daemon.clientErrors(), 1.0);
}

TEST(ServeSocket, StalledClientIsDroppedAfterTheTimeout)
{
    Daemon daemon("stall");
    ASSERT_TRUE(daemon.started());

    // The first client sends half a question and then neither
    // finishes the line nor half-closes; it keeps the connection
    // open until the end of the test.
    const int stalled = daemon.connect();
    ASSERT_GE(stalled, 0) << "daemon never listened: "
                          << std::strerror(errno);
    const std::string line = encodeRequest(table6Query());
    EXPECT_TRUE(sendAll(stalled, line.substr(0, line.size() / 2)));

    // The client queued behind it still gets exactly one answer.
    expectOneAnswer(converse(daemon.connect(), line + "\n"));
    daemon.shutdown();
    ::close(stalled);

    EXPECT_NE(daemon.log().find("timed out"), std::string::npos)
        << daemon.log();
    EXPECT_EQ(daemon.clientErrors(), 1.0);
}

TEST(ServeSocket, OversizedConnectionEarnsOneErrorLine)
{
    // --max-batch 1 caps a connection at (1 + 1) x 64 KiB.
    Daemon daemon("oversize", "--max-batch 1");
    ASSERT_TRUE(daemon.started());

    // One byte past the cap, all blank lines: only the size counts.
    const std::size_t limit = 2 * 64 * 1024;
    const std::vector<std::string> refusal =
        splitLines(converse(daemon.connect(), std::string(limit + 1, '\n')));
    ASSERT_EQ(refusal.size(), 1u);
    EXPECT_NE(refusal.front().find("oma-error-v1"), std::string::npos);
    EXPECT_NE(refusal.front().find(std::to_string(limit)),
              std::string::npos)
        << refusal.front();

    // The next client gets its answer.
    expectOneAnswer(
        converse(daemon.connect(), encodeRequest(table6Query()) + "\n"));
    daemon.shutdown();
    EXPECT_EQ(daemon.clientErrors(), 1.0);
}

TEST(ServeOnce, ControlLinesAreAcknowledged)
{
    const std::string store = scratchDir("control");
    const std::string control =
        "{\"schema\":\"oma-control-v1\",\"cmd\":\"shutdown\"}";
    const std::vector<std::string> lines =
        serveOnce(store, control + "\n");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("oma-control-v1"), std::string::npos);
    EXPECT_NE(lines[0].find("true"), std::string::npos);
    fs::remove_all(store);
}

} // namespace
} // namespace oma::api
