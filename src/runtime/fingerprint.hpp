// Execution fingerprints: counter trace -> normalized byte stream ->
// fuzzy hash, the fourth feature channel.
//
// The normalization follows the Execution Fingerprint Dictionary recipe
// (arXiv:2109.04766): the raw trace is machine- and duration-scaled, so
// absolute counts never reach the hash. Per event,
//
//   1. each interval count becomes a *rate* (count / interval length),
//   2. the rate series is z-scored over the whole trace (its own mean and
//      standard deviation), so a 2x faster machine or a doubled core
//      count produces the identical series shape,
//   3. each z value is quantized to one of `levels` letters, clamped to
//      +/- clamp_sigma standard deviations,
//
// and the per-event letter streams are concatenated in canonical
// (sorted-by-name) event order with the event name as a separator. Two
// runs of the same application produce byte streams with long common
// substrings — exactly what ssdeep's CTPH scores — while a different
// phase structure (a cryptominer's flat integer grind vs a solver's
// compute/communicate alternation) diverges early and often. The digest
// then flows through the same content-agnostic ssdeep layer as the three
// static channels and fuses in the feature matrix as channel
// "ssdeep-runtime" (core::ChannelSet position 3 of runtime_channel_set()).
#pragma once

#include <string>
#include <string_view>

#include "core/features.hpp"
#include "runtime/trace.hpp"
#include "ssdeep/fuzzy_hash.hpp"

namespace fhc::runtime {

/// Model channel name of the execution-fingerprint channel.
inline constexpr std::string_view kRuntimeChannelName = "ssdeep-runtime";

struct FingerprintConfig {
  int levels = 16;           // quantization alphabet size (2..26)
  double clamp_sigma = 2.0;  // z values clamp to +/- this many sigma
  double min_interval = 1e-6;  // floor for interval lengths (seconds)
};

/// The canonical normalized byte stream of a trace (empty for an empty
/// trace). Deterministic in the trace contents; invariant under uniform
/// scaling of any event's counts (z-scores absorb the scale). Throws
/// std::invalid_argument on a malformed config.
std::string fingerprint_bytes(const CounterTrace& trace,
                              const FingerprintConfig& config = {});

/// fuzzy_hash(fingerprint_bytes(trace)) — the runtime channel digest.
ssdeep::FuzzyDigest hash_trace(const CounterTrace& trace,
                               const FingerprintConfig& config = {});

/// The static triple plus the runtime channel — the channel set of a
/// model trained with execution fingerprints.
core::ChannelSet runtime_channel_set();

/// Hashes `trace` into `sample`'s runtime channel (position 3). A sample
/// without an attached trace scores 0 on that channel, like a stripped
/// binary on the symbols channel.
void attach_trace(core::FeatureHashes& sample, const CounterTrace& trace,
                  const FingerprintConfig& config = {});

/// Reads `spec.exe` and extracts its static channels, then attaches the
/// fingerprint of `spec.trace` when there is one. Throws on a read,
/// parse or extraction failure.
core::FeatureHashes extract_path_spec(const PathSpec& spec);

}  // namespace fhc::runtime
