#include "runtime/trace.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

#include "util/io_util.hpp"

namespace fhc::runtime {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Calls `fn(line)` for every line of `text` (terminator optional on the
/// last line).
template <class Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    fn(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
}

/// Value of the string or numeric JSON field `key` in a flat one-line
/// object, or empty when absent. perf's -j output never nests or escapes
/// quotes inside values, so a quote scan is exact for it.
std::string_view json_field(std::string_view line, std::string_view key) {
  const std::string quoted = '"' + std::string(key) + '"';
  const std::size_t at = line.find(quoted);
  if (at == std::string_view::npos) return {};
  std::size_t pos = line.find(':', at + quoted.size());
  if (pos == std::string_view::npos) return {};
  ++pos;
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
  if (pos >= line.size()) return {};
  if (line[pos] == '"') {
    const std::size_t close = line.find('"', pos + 1);
    if (close == std::string_view::npos) return {};
    return line.substr(pos + 1, close - pos - 1);
  }
  std::size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return trim(line.substr(pos, end - pos));
}

}  // namespace

CounterTrace parse_perf_csv(std::string_view text) {
  CounterTrace trace;
  bool saw_data_line = false;
  for_each_line(text, [&](std::string_view line) {
    line = trim(line);
    if (line.empty() || line.front() == '#') return;
    // Split "time,value,unit,event[,...]" — only the first four fields
    // matter; later ones (run time, percentage) vary across perf versions.
    std::string_view fields[4];
    std::size_t field = 0;
    std::size_t pos = 0;
    while (field < 4 && pos <= line.size()) {
      std::size_t comma = line.find(',', pos);
      if (comma == std::string_view::npos) comma = line.size();
      fields[field++] = trim(line.substr(pos, comma - pos));
      pos = comma + 1;
    }
    if (field < 4) return;  // not an interval-mode data line
    CounterSample sample;
    if (!parse_double(fields[0], sample.time)) return;
    saw_data_line = true;
    if (!parse_double(fields[1], sample.value)) return;  // "<not counted>"
    if (fields[3].empty()) return;
    sample.event = std::string(fields[3]);
    trace.samples.push_back(std::move(sample));
  });
  if (!saw_data_line) {
    throw std::runtime_error("parse_perf_csv: no interval data lines");
  }
  return trace;
}

CounterTrace parse_perf_json_lines(std::string_view text) {
  CounterTrace trace;
  bool saw_data_line = false;
  for_each_line(text, [&](std::string_view line) {
    line = trim(line);
    if (line.empty() || line.front() != '{') return;
    CounterSample sample;
    if (!parse_double(json_field(line, "interval"), sample.time)) return;
    saw_data_line = true;
    if (!parse_double(json_field(line, "counter-value"), sample.value)) {
      return;  // "<not counted>" / "<not supported>"
    }
    const std::string_view event = json_field(line, "event");
    if (event.empty()) return;
    sample.event = std::string(event);
    trace.samples.push_back(std::move(sample));
  });
  if (!saw_data_line) {
    throw std::runtime_error("parse_perf_json_lines: no interval data lines");
  }
  return trace;
}

CounterTrace parse_trace(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = trim(text.substr(pos, nl - pos));
    if (!line.empty()) {
      return line.front() == '{' ? parse_perf_json_lines(text)
                                 : parse_perf_csv(text);
    }
    pos = nl + 1;
  }
  throw std::runtime_error("parse_trace: empty trace");
}

CounterTrace load_trace_file(const std::string& path) {
  const std::vector<std::uint8_t> bytes = util::read_file(path);
  return parse_trace(std::string(bytes.begin(), bytes.end()));
}

}  // namespace fhc::runtime
