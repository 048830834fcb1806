/**
 * @file
 * Machine-readable run reports (`BENCH_<name>.json`).
 *
 * Every bench binary, oma_serve and `trace_tools sweeprun` wrap
 * their run in a RunReport and save it on exit, so each run leaves an
 * artifact that CI uploads and EXPERIMENTS.md rows can be regenerated
 * from. The JSON schema (oma-run-report-v1) is documented in
 * docs/OBSERVABILITY.md; serialization iterates the registry's
 * ordered maps, so two reports over the same metrics are textually
 * identical apart from timing values.
 */

#ifndef OMA_OBS_REPORT_HH
#define OMA_OBS_REPORT_HH

#include <iosfwd>
#include <map>
#include <string>

#include "obs/metrics.hh"

namespace oma::obs
{

/** One run's name, metadata and metrics, ready to serialize. */
struct RunReport
{
    /** Report name; becomes `BENCH_<name>.json`. Restricted to
     * [A-Za-z0-9_-] so the file name is always safe. */
    std::string name;

    /** Free-form string metadata (benchmark, OS, refs, threads...). */
    std::map<std::string, std::string> meta;

    MetricRegistry metrics;

    explicit RunReport(std::string report_name);

    /** Serialize as oma-run-report-v1 JSON. */
    void writeJson(std::ostream &os) const;

    /** The file name this report saves under. */
    [[nodiscard]] std::string fileName() const;

    /**
     * Write `BENCH_<name>.json` into @p dir (empty = the
     * OMA_RUN_REPORT_DIR environment variable, falling back to the
     * current directory). Setting OMA_RUN_REPORT=0 disables saving.
     *
     * @return the path written, or "" when reporting is disabled.
     */
    std::string save(const std::string &dir = "") const;
};

} // namespace oma::obs

#endif // OMA_OBS_REPORT_HH
