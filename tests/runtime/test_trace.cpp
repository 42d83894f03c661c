// Trace ingestion + execution fingerprinting: the parsers must accept
// what perf actually emits (comments, torn intervals, not-counted
// samples), and the fingerprint must be deterministic, machine-scale
// invariant, and carry application identity through the ssdeep layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "runtime/fingerprint.hpp"
#include "runtime/synthetic.hpp"
#include "runtime/trace.hpp"
#include "ssdeep/compare.hpp"

namespace fhc::runtime {
namespace {

constexpr std::string_view kCsv =
    "# started on Fri Aug  8 2026\n"
    "\n"
    "1.000139894,1234567,,cycles,1000139894,100.00,,\n"
    "1.000139894,654321,,instructions,1000139894,100.00,,\n"
    "2.000231111,1333333,,cycles,1000091217,100.00,,\n"
    "2.000231111,<not counted>,,instructions,0,0.00,,\n";

constexpr std::string_view kJson =
    "{\"interval\" : 1.000139894, \"counter-value\" : \"1234567.000000\", "
    "\"unit\" : \"\", \"event\" : \"cycles\"}\n"
    "{\"interval\" : 1.000139894, \"counter-value\" : \"654321.000000\", "
    "\"event\" : \"instructions\"}\n"
    "{\"interval\" : 2.000231111, \"counter-value\" : \"<not counted>\", "
    "\"event\" : \"instructions\"}\n"
    "{\"interval\" : 2.000231111, \"counter-value\" : \"1333333.000000\", "
    "\"event\" : \"cycles\"}\n";

TEST(ParsePerfCsv, ReadsIntervalLinesSkipsCommentsAndNotCounted) {
  const CounterTrace trace = parse_perf_csv(kCsv);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.samples[0].time, 1.000139894);
  EXPECT_DOUBLE_EQ(trace.samples[0].value, 1234567.0);
  EXPECT_EQ(trace.samples[0].event, "cycles");
  EXPECT_EQ(trace.samples[1].event, "instructions");
  // The <not counted> instructions sample is dropped, the cycles one kept.
  EXPECT_EQ(trace.samples[2].event, "cycles");
  EXPECT_DOUBLE_EQ(trace.samples[2].value, 1333333.0);
}

TEST(ParsePerfCsv, ThrowsWhenNothingParses) {
  EXPECT_THROW(parse_perf_csv("# only a comment\n"), std::runtime_error);
  EXPECT_THROW(parse_perf_csv("not,a,perf,file but,text\n"), std::runtime_error);
  EXPECT_THROW(parse_perf_csv(""), std::runtime_error);
}

TEST(ParsePerfJson, ReadsObjectsSkipsNotCounted) {
  const CounterTrace trace = parse_perf_json_lines(kJson);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.samples[0].time, 1.000139894);
  EXPECT_DOUBLE_EQ(trace.samples[0].value, 1234567.0);
  EXPECT_EQ(trace.samples[0].event, "cycles");
  EXPECT_EQ(trace.samples[2].event, "cycles");
}

TEST(ParsePerfJson, ThrowsWhenNothingParses) {
  EXPECT_THROW(parse_perf_json_lines("{\"no\":\"interval\"}\n"),
               std::runtime_error);
}

TEST(ParseTrace, SniffsFormatByFirstNonBlankLine) {
  EXPECT_EQ(parse_trace(kCsv).size(), 3u);
  EXPECT_EQ(parse_trace(kJson).size(), 3u);
  EXPECT_EQ(parse_trace("\n\n" + std::string(kJson)).size(), 3u);
  EXPECT_THROW(parse_trace("\n \n"), std::runtime_error);
}

TEST(ParseTrace, CsvAndJsonOfTheSameRunAgree) {
  EXPECT_EQ(parse_perf_csv(kCsv).samples, parse_perf_json_lines(kJson).samples);
}

TEST(LoadTraceFile, ReadsAndParses) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_trace_" + std::to_string(::getpid()) + ".csv");
  {
    std::ofstream out(path);
    out << kCsv;
  }
  EXPECT_EQ(load_trace_file(path.string()).size(), 3u);
  std::filesystem::remove(path);
  EXPECT_THROW(load_trace_file(path.string()), std::runtime_error);
}

TEST(SplitPathSpec, WholeExistingFileWinsOverTheSplit) {
  // An SSSD-style home directory puts an '@' in the executable's path.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("fhc_split_" + std::to_string(::getpid())) /
                                    "bob@example.com";
  std::filesystem::create_directories(dir);
  const std::string exe = (dir / "app").string();
  std::ofstream(exe) << "binary";

  PathSpec spec = split_path_spec(exe);
  EXPECT_EQ(spec.exe, exe);
  EXPECT_FALSE(spec.trace.has_value());

  spec = split_path_spec(exe + "@/tmp/t.csv");
  EXPECT_EQ(spec.exe, exe);
  EXPECT_EQ(spec.trace, "/tmp/t.csv");

  spec = split_path_spec("/no/such/app");
  EXPECT_EQ(spec.exe, "/no/such/app");
  EXPECT_FALSE(spec.trace.has_value());

  spec = split_path_spec("/no/such/app@");
  EXPECT_EQ(spec.exe, "/no/such/app");
  EXPECT_EQ(spec.trace, "");

  std::filesystem::remove_all(dir.parent_path());
}

TEST(Fingerprint, DeterministicAndShapedLikeTheTrace) {
  const TraceSpec spec = hpc_trace_spec(0);
  const CounterTrace trace = synthesize_trace(spec, 1);
  const std::string bytes = fingerprint_bytes(trace);
  EXPECT_EQ(bytes, fingerprint_bytes(trace));
  // One "event:LETTERS\n" block per distinct event, in sorted order.
  std::size_t blocks = 0;
  std::string previous;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = bytes.substr(pos, nl - pos);
    const std::size_t colon = line.find(':');
    ASSERT_NE(colon, std::string::npos);
    const std::string event = line.substr(0, colon);
    EXPECT_LT(previous, event);  // canonical sorted event order
    previous = event;
    for (const char c : line.substr(colon + 1)) {
      EXPECT_GE(c, 'A');
      EXPECT_LT(c, 'A' + 16);  // default levels
    }
    ++blocks;
    pos = nl + 1;
  }
  EXPECT_EQ(blocks, spec.events.size());
}

TEST(Fingerprint, EmptyTraceYieldsEmptyBytes) {
  EXPECT_TRUE(fingerprint_bytes(CounterTrace{}).empty());
}

TEST(Fingerprint, InvariantUnderUniformCounterScaling) {
  CounterTrace trace = synthesize_trace(hpc_trace_spec(1), 7);
  const std::string original = fingerprint_bytes(trace);
  // A machine twice as fast (or twice the cores) doubles every count of
  // an event; the z-score absorbs the scale.
  for (CounterSample& sample : trace.samples) {
    if (sample.event == "cycles") sample.value *= 2.0;
  }
  EXPECT_EQ(fingerprint_bytes(trace), original);
}

TEST(Fingerprint, RejectsMalformedConfig) {
  const CounterTrace trace = synthesize_trace(hpc_trace_spec(0), 1);
  FingerprintConfig config;
  config.levels = 1;
  EXPECT_THROW(fingerprint_bytes(trace, config), std::invalid_argument);
  config.levels = 27;
  EXPECT_THROW(fingerprint_bytes(trace, config), std::invalid_argument);
  config = FingerprintConfig{};
  config.clamp_sigma = 0.0;
  EXPECT_THROW(fingerprint_bytes(trace, config), std::invalid_argument);
}

TEST(HashTrace, IsTheFuzzyHashOfTheFingerprintBytes) {
  const CounterTrace trace = synthesize_trace(miner_trace_spec(0), 3);
  const ssdeep::FuzzyDigest direct =
      ssdeep::fuzzy_hash(std::string_view(fingerprint_bytes(trace)));
  EXPECT_EQ(hash_trace(trace).to_string(), direct.to_string());
}

TEST(Synthetic, SameSpecSameSeedIsByteStable) {
  const TraceSpec spec = hpc_trace_spec(2);
  EXPECT_EQ(synthesize_trace(spec, 9).samples, synthesize_trace(spec, 9).samples);
}

TEST(Synthetic, SameApplicationRunsFingerprintSimilar) {
  for (int variant = 0; variant < 3; ++variant) {
    const TraceSpec spec = hpc_trace_spec(variant);
    const auto a = hash_trace(synthesize_trace(spec, 1));
    const auto b = hash_trace(synthesize_trace(spec, 2));
    EXPECT_GT(ssdeep::compare_digests(a, b), 40)
        << "hpc variant " << variant << " runs should match";
  }
  const auto a = hash_trace(synthesize_trace(miner_trace_spec(0), 1));
  const auto b = hash_trace(synthesize_trace(miner_trace_spec(0), 2));
  EXPECT_GT(ssdeep::compare_digests(a, b), 40) << "miner runs should match";
}

TEST(Synthetic, DifferentApplicationsFingerprintDissimilar) {
  const auto miner = hash_trace(synthesize_trace(miner_trace_spec(0), 1));
  for (int variant = 0; variant < 3; ++variant) {
    const auto hpc = hash_trace(synthesize_trace(hpc_trace_spec(variant), 1));
    EXPECT_LT(ssdeep::compare_digests(miner, hpc), 40)
        << "miner vs hpc variant " << variant;
  }
  const auto hpc0 = hash_trace(synthesize_trace(hpc_trace_spec(0), 1));
  const auto hpc1 = hash_trace(synthesize_trace(hpc_trace_spec(1), 1));
  EXPECT_LT(ssdeep::compare_digests(hpc0, hpc1), 40) << "distinct hpc apps";
}

TEST(AttachTrace, FillsChannelThree) {
  core::FeatureHashes sample;
  EXPECT_EQ(sample.channel_count(), 3u);
  const CounterTrace trace = synthesize_trace(miner_trace_spec(0), 5);
  attach_trace(sample, trace);
  ASSERT_EQ(sample.channel_count(), 4u);
  EXPECT_EQ(sample.channel(3).to_string(), hash_trace(trace).to_string());
}

TEST(RuntimeChannelSet, ExtendsTheStaticTriple) {
  const core::ChannelSet channels = runtime_channel_set();
  ASSERT_EQ(channels.size(), 4u);
  EXPECT_FALSE(channels.is_static_triple());
  EXPECT_EQ(channels[3].name, kRuntimeChannelName);
  EXPECT_EQ(channels[3].kind, core::ChannelKind::kRuntime);
  EXPECT_EQ(channels.index_of(std::string(kRuntimeChannelName)), 3);
}

}  // namespace
}  // namespace fhc::runtime
