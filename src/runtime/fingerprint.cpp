#include "runtime/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/io_util.hpp"

namespace fhc::runtime {

std::string fingerprint_bytes(const CounterTrace& trace,
                              const FingerprintConfig& config) {
  if (config.levels < 2 || config.levels > 26) {
    throw std::invalid_argument("fingerprint: levels out of range");
  }
  if (!(config.clamp_sigma > 0.0)) {
    throw std::invalid_argument("fingerprint: clamp_sigma must be positive");
  }

  // Regroup the interleaved stream per event, keeping stream order inside
  // each event; the map makes the emission order canonical (sorted names)
  // regardless of the order perf listed the events in.
  struct Series {
    std::vector<double> rates;
    double last_time = 0.0;
  };
  std::map<std::string, Series> by_event;
  for (const CounterSample& sample : trace.samples) {
    Series& series = by_event[sample.event];
    double dt = sample.time - series.last_time;
    if (!(dt > config.min_interval)) dt = 1.0;  // torn/first interval
    series.last_time = sample.time;
    series.rates.push_back(sample.value / dt);
  }

  std::string out;
  for (auto& [event, series] : by_event) {
    double mean = 0.0;
    for (const double r : series.rates) mean += r;
    mean /= static_cast<double>(series.rates.size());
    double var = 0.0;
    for (const double r : series.rates) var += (r - mean) * (r - mean);
    var /= static_cast<double>(series.rates.size());
    const double sigma = std::sqrt(var);

    out += event;
    out += ':';
    const double span = 2.0 * config.clamp_sigma;
    for (const double r : series.rates) {
      const double z = sigma > 0.0 ? (r - mean) / sigma : 0.0;
      const double clamped =
          std::clamp(z, -config.clamp_sigma, config.clamp_sigma);
      const int level = static_cast<int>(
          std::lround((clamped + config.clamp_sigma) / span *
                      static_cast<double>(config.levels - 1)));
      out += static_cast<char>('A' + level);
    }
    out += '\n';
  }
  return out;
}

ssdeep::FuzzyDigest hash_trace(const CounterTrace& trace,
                               const FingerprintConfig& config) {
  return ssdeep::fuzzy_hash(std::string_view(fingerprint_bytes(trace, config)));
}

core::ChannelSet runtime_channel_set() {
  return core::ChannelSet::static_plus(std::string(kRuntimeChannelName),
                                       core::ChannelKind::kRuntime);
}

void attach_trace(core::FeatureHashes& sample, const CounterTrace& trace,
                  const FingerprintConfig& config) {
  sample.set_channel(3, hash_trace(trace, config));
}

core::FeatureHashes extract_path_spec(const PathSpec& spec) {
  core::FeatureHashes sample = core::extract_feature_hashes(util::read_file(spec.exe));
  if (spec.trace) attach_trace(sample, load_trace_file(*spec.trace));
  return sample;
}

}  // namespace fhc::runtime
