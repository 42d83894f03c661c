// Counter-sample trace ingestion: perf-stat-style streams -> CounterTrace.
//
// The runtime feature channel classifies *running* applications from
// hardware-counter time series (the Execution Fingerprint Dictionary
// recipe; see PAPERS.md). The collector of record is plain perf:
//
//   perf stat -I 1000 -x, -e cycles,instructions,cache-misses,branches
//        ... -p <pid> -o app.trace.csv
//   perf stat -I 1000 -j -e ...            # line-JSON variant
//
// parse_perf_csv ingests the `-x,` interval CSV (time,value,unit,event,...)
// and parse_perf_json_lines the `-j` one-object-per-line form; both skip
// "<not counted>"/"<not supported>" samples and comment lines, so a trace
// cut short or over-subscribed still parses. parse_trace sniffs the
// format. No external JSON/CSV dependency: the grammar actually emitted
// by perf is line-oriented and flat, and a hand-rolled scanner keeps the
// ingest path allocation-light.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fhc::runtime {

/// One counter reading: the interval-end timestamp in seconds, the count
/// accumulated over that interval, and the event name.
struct CounterSample {
  double time = 0.0;
  double value = 0.0;
  std::string event;

  bool operator==(const CounterSample&) const = default;
};

/// A whole collection run, samples in stream order (perf interleaves the
/// events of each interval).
struct CounterTrace {
  std::vector<CounterSample> samples;

  bool empty() const noexcept { return samples.empty(); }
  std::size_t size() const noexcept { return samples.size(); }
};

/// `perf stat -I <ms> -x,` output: one "time,value,unit,event[,...]" line
/// per (interval, event). Lines starting with '#', blank lines, and
/// not-counted samples are skipped. Throws std::runtime_error when no
/// line of the input parses (a wrong file, not a sparse one).
CounterTrace parse_perf_csv(std::string_view text);

/// `perf stat -I <ms> -j` output: one flat JSON object per line with
/// "interval", "counter-value", and "event" keys. Same skip rules.
CounterTrace parse_perf_json_lines(std::string_view text);

/// Sniffs the format (first non-blank line starting with '{' = JSON) and
/// delegates.
CounterTrace parse_trace(std::string_view text);

/// Reads `path` and parse_trace's it.
CounterTrace load_trace_file(const std::string& path);

/// One `FILE[@TRACE]` item of a classify request: the executable, and the
/// perf-stat trace to fingerprint into the runtime channel, if any.
struct PathSpec {
  std::string exe;
  std::optional<std::string> trace;
};

/// Splits a `FILE[@TRACE]` item. A spec that names an existing file as a
/// whole is the executable, `@` and all (an SSSD home such as
/// /home/alice@example.com/bin/app); only otherwise is it split at its
/// last `@`. A spec without `@` costs no system call.
PathSpec split_path_spec(const std::string& spec);

}  // namespace fhc::runtime
