/**
 * @file
 * Implementation of the metric registry.
 */

#include "obs/metrics.hh"

#include "support/logging.hh"

namespace oma::obs
{

void
MetricRegistry::merge(const MetricRegistry &shard)
{
    for (const auto &[name, value] : shard._counters)
        _counters[name] += value;
    for (const auto &[name, value] : shard._gauges) {
        if (shard._setGauges.count(name) != 0) {
            _gauges[name] = value;
            _setGauges.insert(name);
        } else {
            _gauges[name] += value;
        }
    }
    for (const auto &[name, hist] : shard._histograms)
        _histograms[name].merge(hist);
}

Observation &
Observation::none()
{
    thread_local Observation scratch;
    return scratch;
}

Progress::Callback
Progress::informSink(std::string what)
{
    return [what = std::move(what)](std::uint64_t done,
                                    std::uint64_t total) {
        inform(what + ": " + std::to_string(done) + "/" +
               std::to_string(total));
    };
}

} // namespace oma::obs
