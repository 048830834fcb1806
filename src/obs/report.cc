/**
 * @file
 * Run-report serialization (JSON).
 */

#include "obs/report.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "support/json.hh"
#include "support/logging.hh"

namespace oma::obs
{

namespace
{

/**
 * Append gauge @p v. JSON has no literal for non-finite values, so
 * those serialize as strings ("inf"/"-inf"/"nan") — reports must stay
 * parseable whatever a gauge held.
 */
void
appendGauge(std::string &out, double v)
{
    if (std::isfinite(v))
        appendJsonReal(out, v);
    else
        appendJsonString(out, v > 0 ? "inf" : (v < 0 ? "-inf" : "nan"));
}

void
appendHistogram(std::string &out, const Histogram &h)
{
    out += "{\"count\": ";
    appendJsonU64(out, h.count);
    out += ", \"sum\": ";
    appendJsonU64(out, h.sum);
    out += ", \"min\": ";
    appendJsonU64(out, h.count ? h.min : 0);
    out += ", \"max\": ";
    appendJsonU64(out, h.count ? h.max : 0);
    out += ", \"mean\": ";
    appendGauge(out, h.mean());
    out += ", \"buckets\": {";
    const char *sep = "";
    for (unsigned b = 0; b < Histogram::numBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        out += sep;
        sep = ", ";
        out += '"';
        appendJsonU64(out, Histogram::bucketBound(b));
        out += "\": ";
        appendJsonU64(out, h.buckets[b]);
    }
    out += "}}";
}

/** Append top-level member `"name": {...}` holding one `"key": value`
 * line per entry of @p members, each value written by @p value. */
template <typename Members, typename Value>
void
appendObject(std::string &out, const char *name, const Members &members,
             Value value)
{
    out += ",\n  ";
    appendJsonString(out, name);
    out += ": {";
    const char *sep = "\n    ";
    for (const auto &[key, v] : members) {
        out += sep;
        sep = ",\n    ";
        appendJsonString(out, key);
        out += ": ";
        value(out, v);
    }
    out += members.empty() ? "}" : "\n  }";
}

} // namespace

RunReport::RunReport(std::string report_name)
    : name(std::move(report_name))
{
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '_' || c == '-';
        fatalIf(!ok, "run-report name must match [A-Za-z0-9_-]: " +
                    name);
    }
    fatalIf(name.empty(), "run-report name must not be empty");
}

void
RunReport::writeJson(std::ostream &os) const
{
    std::string out = "{\n  \"schema\": \"oma-run-report-v1\",\n  \"name\": ";
    appendJsonString(out, name);
    appendObject(out, "meta", meta,
                 [](std::string &o, const std::string &v) {
                     appendJsonString(o, v);
                 });
    appendObject(out, "counters", metrics.counters(), appendJsonU64);
    appendObject(out, "gauges", metrics.gauges(), appendGauge);
    appendObject(out, "histograms", metrics.histograms(),
                 appendHistogram);
    out += "\n}\n";
    os << out;
}

std::string
RunReport::fileName() const
{
    return "BENCH_" + name + ".json";
}

std::string
RunReport::save(const std::string &dir) const
{
    if (const char *env = std::getenv("OMA_RUN_REPORT")) {
        if (std::string(env) == "0")
            return "";
    }
    std::string out_dir = dir;
    if (out_dir.empty()) {
        const char *env = std::getenv("OMA_RUN_REPORT_DIR");
        out_dir = (env != nullptr && *env != '\0') ? env : ".";
    }
    const std::string path = out_dir + "/" + fileName();
    std::ofstream os(path);
    if (!os) {
        // A read-only working directory must not kill the run the
        // report merely describes.
        warn("cannot write run report: " + path);
        return "";
    }
    writeJson(os);
    os.flush();
    if (!os) {
        warn("short write on run report: " + path);
        return "";
    }
    return path;
}

} // namespace oma::obs
