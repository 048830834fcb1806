/**
 * @file
 * oma_serve: allocation-as-a-service over the oma::api facade.
 *
 * Speaks NDJSON: each request line is one oma-allocation-request-v1
 * object, each answer line the matching response (or oma-error-v1).
 * Two transports share the QueryEngine serving discipline
 * (docs/MODEL.md §14):
 *
 *  * `--once` reads requests from stdin until EOF and writes the
 *    answers to stdout in input order — no networking, so CI and the
 *    e2e tests drive the full daemon path through a pipe.
 *  * Otherwise the daemon binds a Unix-domain socket (`--socket`),
 *    answers one connection at a time (the client half-closes after
 *    its last line) and keeps running until a control line
 *    `{"schema":"oma-control-v1","cmd":"shutdown"}` arrives. A client
 *    that hangs up before reading its answers costs only its own
 *    connection: the failed read or write is dropped with a warning
 *    and counted in `serve/client_errors`.
 *
 * Identical lines in one batch coalesce onto a single computation
 * (`serve/dedup_hits`), repeated questions across batches are served
 * warm from the artifact store (`serve/warm_hits`), and distinct
 * requests compute on at most `--max-inflight` lanes. On exit the
 * daemon saves a run report carrying every serve counter, so CI can
 * gate on the dedupe/warm behaviour (scripts/check_run_report.py).
 */

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/json.hh"
#include "api/query_engine.hh"
#include "obs/report.hh"
#include "support/logging.hh"

namespace
{

using namespace oma;

struct ServeOptions
{
    bool once = false;
    std::string socketPath = "oma_serve.sock";
    std::string storeDir;
    std::string reportName = "oma_serve";
    unsigned maxInflight = 4;
    std::size_t maxBatch = 64;
};

void
usage()
{
    std::cerr
        << "usage: oma_serve [--once] [--socket PATH]\n"
        << "                 [--store-dir DIR] [--max-inflight N]\n"
        << "                 [--max-batch N] [--report NAME]\n"
        << "\n"
        << "Answers oma-allocation-request-v1 NDJSON lines with\n"
        << "oma-allocation-response-v1 lines, one per request, in\n"
        << "input order.\n"
        << "  --once          serve stdin -> stdout, exit at EOF\n"
        << "  --socket PATH   Unix-domain socket to listen on\n"
        << "                  (default oma_serve.sock)\n"
        << "  --store-dir DIR artifact store root (default: the\n"
        << "                  OMA_STORE_DIR environment variable)\n"
        << "  --max-inflight N  distinct requests computed\n"
        << "                  concurrently per batch (default 4)\n"
        << "  --max-batch N   requests admitted per batch; the rest\n"
        << "                  are refused with an error (default 64)\n"
        << "  --report NAME   run-report name (default oma_serve)\n";
}

ServeOptions
parseOptions(int argc, char **argv)
{
    ServeOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            fatalIf(i + 1 >= argc, "oma_serve: " + arg +
                    " requires a value");
            return argv[++i];
        };
        if (arg == "--once") {
            opt.once = true;
        } else if (arg == "--socket") {
            opt.socketPath = value();
        } else if (arg == "--store-dir") {
            opt.storeDir = value();
        } else if (arg == "--report") {
            opt.reportName = value();
        } else if (arg == "--max-inflight") {
            opt.maxInflight =
                unsigned(std::strtoul(value().c_str(), nullptr, 10));
            fatalIf(opt.maxInflight == 0,
                    "oma_serve: --max-inflight must be positive");
        } else if (arg == "--max-batch") {
            opt.maxBatch = std::strtoull(value().c_str(), nullptr, 10);
            fatalIf(opt.maxBatch == 0,
                    "oma_serve: --max-batch must be positive");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("oma_serve: unknown option " + arg);
        }
    }
    return opt;
}

/** True when @p line is a well-formed oma-control-v1 shutdown. */
bool
isShutdownLine(const std::string &line)
{
    api::JsonValue value;
    std::string error;
    if (!api::parseJson(line, value, error))
        return false;
    const api::JsonValue *schema = value.find("schema");
    const api::JsonValue *cmd = value.find("cmd");
    return schema != nullptr && cmd != nullptr &&
        schema->kind == api::JsonValue::Kind::String &&
        schema->string == "oma-control-v1" &&
        cmd->kind == api::JsonValue::Kind::String &&
        cmd->string == "shutdown";
}

/** The ack a control line earns. */
std::string
controlAck()
{
    return "{\"schema\":\"oma-control-v1\",\"ok\":true}";
}

/**
 * Answer one batch of raw lines: control lines are acked in place,
 * the rest go through QueryEngine::answerBatch. Returns the answers
 * in input order and sets @p shutdown when a shutdown line appeared.
 */
std::vector<std::string>
serveBatch(api::QueryEngine &engine, const std::vector<std::string> &lines,
           obs::Observation *observation, bool &shutdown)
{
    std::vector<std::string> answers(lines.size());
    std::vector<std::string> queries;
    std::vector<std::size_t> queryLines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (isShutdownLine(lines[i])) {
            shutdown = true;
            answers[i] = controlAck();
            continue;
        }
        queries.push_back(lines[i]);
        queryLines.push_back(i);
    }
    const std::vector<std::string> batch_answers =
        engine.answerBatch(queries, observation);
    for (std::size_t q = 0; q < queryLines.size(); ++q)
        answers[queryLines[q]] = batch_answers[q];
    return answers;
}

/** Split @p text into newline-terminated records, skipping blanks. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(start, end - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            lines.push_back(std::move(line));
        start = end + 1;
    }
    return lines;
}

/** Read until EOF on client @p fd into @p text; false (with a
 * warning) when the client connection fails first. */
bool
readAll(int fd, std::string &text)
{
    char buf[4096];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            text.append(buf, std::size_t(n));
            continue;
        }
        if (n == 0)
            return true;
        if (errno == EINTR)
            continue;
        warn(std::string("oma_serve: dropping client: read: ") +
             std::strerror(errno));
        return false;
    }
}

/** Write all of @p data to client @p fd; false (with a warning) when
 * the client connection fails first, e.g. it already hung up. */
bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n > 0) {
            data.remove_prefix(std::size_t(n));
            continue;
        }
        if (errno == EINTR)
            continue;
        warn(std::string("oma_serve: dropping client: write: ") +
             std::strerror(errno));
        return false;
    }
    return true;
}

int
serveOnce(api::QueryEngine &engine, obs::Observation *observation)
{
    std::string text;
    std::string line;
    while (std::getline(std::cin, line)) {
        text += line;
        text.push_back('\n');
    }
    bool shutdown = false;
    const std::vector<std::string> answers =
        serveBatch(engine, splitLines(text), observation, shutdown);
    for (const std::string &answer : answers)
        std::cout << answer << '\n';
    return 0;
}

int
serveSocket(api::QueryEngine &engine, const std::string &path,
            obs::Observation *observation)
{
    fatalIf(path.size() >= sizeof(sockaddr_un{}.sun_path),
            "oma_serve: socket path too long: " + path);
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    fatalIf(listen_fd < 0, std::string("oma_serve: socket: ") +
            std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());
    // oma-lint: allow(cast-audit): POSIX bind/accept take the
    // generic sockaddr view of sockaddr_un; the cast is the
    // sanctioned sockets-API idiom and sizeof passes the real type.
    if (::bind(listen_fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0)
        fatal("oma_serve: bind " + path + ": " + std::strerror(errno));
    if (::listen(listen_fd, 16) != 0)
        fatal(std::string("oma_serve: listen: ") + std::strerror(errno));
    inform("oma_serve: listening on " + path);

    bool shutdown = false;
    while (!shutdown) {
        const int client_fd = ::accept(listen_fd, nullptr, nullptr);
        if (client_fd < 0) {
            if (errno == EINTR)
                continue;
            fatal(std::string("oma_serve: accept: ") +
                  std::strerror(errno));
        }
        std::string text;
        bool ok = readAll(client_fd, text);
        if (ok) {
            const std::vector<std::string> answers = serveBatch(
                engine, splitLines(text), observation, shutdown);
            std::string reply;
            for (const std::string &answer : answers) {
                reply += answer;
                reply.push_back('\n');
            }
            ok = writeAll(client_fd, reply);
        }
        if (!ok)
            observation->metrics.add("serve/client_errors");
        ::close(client_fd);
    }
    ::close(listen_fd);
    ::unlink(path.c_str());
    inform("oma_serve: shutdown");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const ServeOptions opt = parseOptions(argc, argv);
    // A client that hangs up early must fail our write with EPIPE,
    // not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    api::QueryEngineConfig config;
    config.storeDir = opt.storeDir;
    config.maxInflight = opt.maxInflight;
    config.maxBatch = opt.maxBatch;
    api::QueryEngine engine(config);

    obs::RunReport report(opt.reportName);
    report.meta["mode"] = opt.once ? "once" : "socket";
    report.meta["store_dir"] = engine.store() != nullptr
        ? "configured" : "none";
    report.meta["max_inflight"] = std::to_string(opt.maxInflight);
    report.meta["max_batch"] = std::to_string(opt.maxBatch);
    obs::Observation observation;

    const int rc = opt.once
        ? serveOnce(engine, &observation)
        : serveSocket(engine, opt.socketPath, &observation);

    report.metrics.merge(observation.metrics);
    const std::string path = report.save();
    if (!path.empty())
        std::cerr << "[run report: " << path << "]\n";
    return rc;
}
