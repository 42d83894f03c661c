// Environment-variable knobs for the bench harness.
//
//   FHC_SCALE   — corpus scale factor in (0, 1]; 1.0 = the paper's full
//                 5333-sample dataset. Smaller values shrink every class
//                 proportionally (min 3 samples) for quick runs.
//   FHC_SEED    — experiment master seed (default 42).
#pragma once

#include <cstdint>
#include <string>

namespace fhc::util {

/// Reads env var `name`; returns `fallback` when unset or unparsable.
double env_double(const std::string& name, double fallback);
std::int64_t env_int(const std::string& name, std::int64_t fallback);
std::string env_string(const std::string& name, const std::string& fallback);

/// Corpus scale for benches: FHC_SCALE clamped to (0, 1].
double bench_scale();

/// Experiment master seed for benches: FHC_SEED (default 42).
std::uint64_t bench_seed();

}  // namespace fhc::util
