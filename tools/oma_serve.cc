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
 *    and counted in `serve/client_errors`. So does a client that
 *    stalls (every read and write on a connection times out after
 *    clientTimeoutSeconds, so a client that never half-closes or
 *    never reads cannot stall the accept loop) and one that sends
 *    more than (max-batch + 1) x 64 KiB, which first gets one
 *    `oma-error-v1` line naming the limit.
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
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/query_engine.hh"
#include "api/request.hh"
#include "obs/report.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace
{

using namespace oma;

/** Seconds one client read or write may block before the daemon
 * drops that client. */
constexpr int clientTimeoutSeconds = 3;

/** Bytes a connection may send per request line it may have admitted
 * (plus one line's worth): a default Table 6 request line is about
 * 670 bytes. */
constexpr std::size_t connectionBytesPerLine = 64 * 1024;

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
        << "                  are refused with an error (default 64).\n"
        << "                  A connection may send at most\n"
        << "                  (N + 1) x 64 KiB\n"
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
    JsonValue value;
    std::string error;
    if (!parseJson(line, value, error))
        return false;
    const JsonValue *schema = value.find("schema");
    const JsonValue *cmd = value.find("cmd");
    return schema != nullptr && cmd != nullptr &&
        schema->kind == JsonValue::Kind::String &&
        schema->string == "oma-control-v1" &&
        cmd->kind == JsonValue::Kind::String &&
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

/** Why a client read or write failed, for the drop warning. */
std::string
clientIoError()
{
    if (errno == EAGAIN || errno == EWOULDBLOCK)
        return "timed out after " + std::to_string(clientTimeoutSeconds) +
            " s";
    return std::strerror(errno);
}

/** Bound every read and write on client @p fd by
 * clientTimeoutSeconds; false (with a warning) if the socket refuses. */
bool
setClientTimeouts(int fd)
{
    timeval timeout{};
    timeout.tv_sec = clientTimeoutSeconds;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout) == 0 &&
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                     sizeof timeout) == 0)
        return true;
    warn(std::string("oma_serve: dropping client: setsockopt: ") +
         std::strerror(errno));
    return false;
}

/** How reading a client's batch ended. */
enum class ReadEnd
{
    Eof,       //!< The client half-closed: serve the batch.
    Failed,    //!< The read failed or timed out (already warned).
    OverLimit, //!< The client sent more than the connection limit.
};

/** Read until EOF on client @p fd into @p text, or until the
 * connection sends more than @p limit bytes. */
ReadEnd
readAll(int fd, std::size_t limit, std::string &text)
{
    char buf[4096];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            text.append(buf, std::size_t(n));
            if (text.size() > limit)
                return ReadEnd::OverLimit;
            continue;
        }
        if (n == 0)
            return ReadEnd::Eof;
        if (errno == EINTR)
            continue;
        warn("oma_serve: dropping client: read: " + clientIoError());
        return ReadEnd::Failed;
    }
}

/** Write all of @p data to client @p fd; false (with a warning) when
 * the client connection fails first, e.g. it already hung up or
 * stopped reading. */
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
        warn("oma_serve: dropping client: write: " + clientIoError());
        return false;
    }
    return true;
}

/** Read, answer and reply to one accepted client; false when the
 * client was dropped. */
bool
serveClient(api::QueryEngine &engine, int fd, std::size_t max_batch,
            obs::Observation *observation, bool &shutdown)
{
    if (!setClientTimeouts(fd))
        return false;
    // Saturate: --max-batch is any positive 64-bit value.
    const std::size_t limit =
        max_batch < SIZE_MAX / connectionBytesPerLine - 1
        ? (max_batch + 1) * connectionBytesPerLine
        : SIZE_MAX;
    std::string text;
    switch (readAll(fd, limit, text)) {
      case ReadEnd::Eof:
        break;
      case ReadEnd::Failed:
        return false;
      case ReadEnd::OverLimit: {
        const std::string refusal = "connection sent more than " +
            std::to_string(limit) + " bytes, the limit of (max-batch " +
            std::to_string(max_batch) + " + 1) x " +
            std::to_string(connectionBytesPerLine) + " bytes";
        warn("oma_serve: dropping client: " + refusal);
        (void)writeAll(fd, api::encodeError(refusal) + "\n");
        return false;
      }
    }
    const std::vector<std::string> answers =
        serveBatch(engine, splitLines(text), observation, shutdown);
    std::string reply;
    for (const std::string &answer : answers) {
        reply += answer;
        reply.push_back('\n');
    }
    return writeAll(fd, reply);
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
            std::size_t max_batch, obs::Observation *observation)
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
        if (!serveClient(engine, client_fd, max_batch, observation,
                         shutdown))
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
        : serveSocket(engine, opt.socketPath, opt.maxBatch,
                      &observation);

    report.metrics.merge(observation.metrics);
    const std::string path = report.save();
    if (!path.empty())
        std::cerr << "[run report: " << path << "]\n";
    return rc;
}
