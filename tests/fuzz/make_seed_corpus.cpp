// Seed-corpus generator: writes one minimized, structure-bearing seed
// set per fuzz target under OUTDIR/<target>/.
//
//   make_seed_corpus OUTDIR
//
// The seeds are produced by the *real* producers — ssdeep::fuzzy_hash,
// elf::write_elf, FuzzyHashClassifier::save/save_binary,
// the net encode_* helpers — so every seed starts deep inside the
// parsers' accept states and mutation explores the interesting
// boundaries instead of bouncing off the magic check. Deterministic:
// re-running regenerates byte-identical corpora (the corpora are
// checked in; this tool exists to regenerate them when formats evolve).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "corpus/app_spec.hpp"
#include "corpus/corpus.hpp"
#include "elf/elf_writer.hpp"
#include "net/protocol.hpp"
#include "runtime/fingerprint.hpp"
#include "ssdeep/fuzzy_hash.hpp"
#include "util/rng.hpp"
#include "util/sectioned.hpp"

using namespace fhc;

namespace {

std::filesystem::path g_outdir;

void write_seed(const std::string& target, const std::string& name,
                std::string_view bytes) {
  const std::filesystem::path dir = g_outdir / target;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_seed_corpus: cannot write %s/%s\n",
                 target.c_str(), name.c_str());
    std::exit(1);
  }
}

void write_seed(const std::string& target, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  write_seed(target, name,
             std::string_view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()));
}

/// Deterministic pseudo-text with enough repetition to drive ssdeep's
/// rolling hash through several chunk boundaries.
std::string synth_text(std::uint64_t seed, std::size_t length) {
  util::Rng rng(seed);
  std::string text;
  text.reserve(length);
  static constexpr std::string_view kWords[] = {
      "mpi_allreduce", "dgemm",  "halo",  "exchange", "solver",
      "miner",         "sha256", "nonce", "stratum",  "checkpoint"};
  while (text.size() < length) {
    text += kWords[rng.next_below(std::size(kWords))];
    text += rng.next_below(8) == 0 ? '\n' : '_';
  }
  return text;
}

std::vector<std::uint8_t> synth_bytes(std::uint64_t seed, std::size_t length) {
  const std::string text = synth_text(seed, length);
  return {text.begin(), text.end()};
}

/// A tiny fitted classifier shared by the model seeds.
core::FuzzyHashClassifier make_model(bool calibrated) {
  std::vector<core::FeatureHashes> hashes;
  std::vector<int> labels;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < (calibrated ? 6 : 3); ++i) {
      core::FeatureHashes sample;
      const std::uint64_t seed =
          static_cast<std::uint64_t>(c) * 100 + static_cast<std::uint64_t>(i);
      sample.file = ssdeep::fuzzy_hash(synth_text(seed, 2048));
      sample.strings = ssdeep::fuzzy_hash(synth_text(seed + 31, 1024));
      sample.symbols = ssdeep::fuzzy_hash(synth_text(seed + 67, 512));
      hashes.push_back(std::move(sample));
      labels.push_back(c);
    }
  }
  core::ClassifierConfig config;
  config.forest.n_estimators = 8;
  config.forest.seed = 7;
  if (calibrated) {
    config.calibrate_rejection = true;
    config.calibration_target_fpr = 0.1;
  }
  core::FuzzyHashClassifier model;
  model.fit(hashes, labels, {"lammps", "gromacs", "miner"}, config);
  return model;
}

/// The container `image` re-sealed under `magic` (fresh checksums), with
/// its forest image's magic set to the retired dense-leaf "FHCFRST1"
/// when `retire_forest`: the loader must refuse either by magic, after
/// the checksums pass.
std::string resealed(const std::string& image, std::string_view magic,
                     bool retire_forest) {
  std::vector<std::byte> bytes(image.size());
  std::memcpy(bytes.data(), image.data(), image.size());
  const auto view = util::SectionedView::attach(bytes, core::kBinaryModelMagic);
  std::vector<std::byte> forest;
  util::SectionedWriter writer(magic);
  for (const util::SectionEntry& entry : view.entries()) {
    const auto section = view.section(entry.tag_view());
    if (retire_forest && entry.tag_view() == "forest") {
      forest.assign(section.begin(), section.end());
      forest[7] = std::byte{'1'};  // "FHCFRST2" -> "FHCFRST1"
      writer.add(entry.tag_view(), forest);
    } else {
      writer.add(entry.tag_view(), section);
    }
  }
  std::ostringstream out(std::ios::binary);
  writer.write_to(out);
  return out.str();
}

void seed_parse_digest() {
  const std::string target = "fuzz_parse_digest";
  int n = 0;
  for (const std::size_t length : {16, 256, 4096, 65536}) {
    const auto digest =
        ssdeep::fuzzy_hash(synth_text(static_cast<std::uint64_t>(length), length));
    write_seed(target, "digest" + std::to_string(n++), digest.to_string());
  }
  write_seed(target, "minimal", "3::");
  write_seed(target, "no_part2", "6:abc:");
  write_seed(target, "bad_blocksize", "7:abc:def");
  write_seed(target, "overlong",
             "3:" + std::string(ssdeep::kSpamsumLength + 1, 'A') + ":x");
}

void seed_elf_reader() {
  const std::string target = "fuzz_elf_reader";
  elf::ElfSpec spec;
  spec.text = synth_bytes(1, 512);
  spec.rodata = synth_bytes(2, 256);
  spec.comment = "GCC: (GNU) 12.2.0";
  spec.symbols = {{.name = "mpi_init_"},
                  {.name = "solve_step", .value = 16},
                  {.name = "checkpoint_write", .value = 128, .size = 64}};
  write_seed(target, "full", elf::write_elf(spec));
  elf::ElfSpec stripped = spec;
  stripped.stripped = true;
  stripped.symbols.clear();
  write_seed(target, "stripped", elf::write_elf(stripped));
  elf::ElfSpec tiny;
  tiny.text = {0xc3};
  write_seed(target, "tiny", elf::write_elf(tiny));
  write_seed(target, "not_elf", synth_text(3, 128));
  write_seed(target, "magic_only", std::string_view("\x7f"
                                                    "ELF",
                                                    4));
}

void seed_model_load() {
  const std::string target = "fuzz_model_load";
  const core::FuzzyHashClassifier plain = make_model(false);
  const core::FuzzyHashClassifier calibrated = make_model(true);
  std::ostringstream text;
  plain.save(text);
  write_seed(target, "text_model", text.str());
  std::ostringstream text_cal;
  calibrated.save(text_cal);
  write_seed(target, "text_model_calibrated", text_cal.str());
  std::ostringstream binary;
  plain.save_binary(binary);
  write_seed(target, "binary_v3", binary.str());
  write_seed(target, "binary_v3_forest_v1",
             resealed(binary.str(), core::kBinaryModelMagic, true));
  // A retired container version, refused by its magic alone.
  write_seed(target, "binary_v2_retired", resealed(binary.str(), "FHCMDLB2", false));
  std::ostringstream binary_cal;
  calibrated.save_binary(binary_cal);
  write_seed(target, "binary_v3_calibrated", binary_cal.str());
  write_seed(target, "magic_only_v3", core::kBinaryModelMagic);
  // Hand-rolled preamble with a calibration line and huge declared
  // counts: the ancestor of the kMaxModelClasses / kMaxModelTrainRows
  // findings. Mutations of the count fields probe the caps directly.
  write_seed(target, "header_counts",
             "fhc-fuzzy-hash-classifier-v1\nmetric 0\nthreshold 0.5\n"
             "balanced 1\ncalibration 0.25 0.05 12\nchannels 1 1 1\n"
             "classes 2\nalpha\nbeta\ntrain 0\n");
}

void seed_net_frame() {
  const std::string target = "fuzz_net_frame";
  std::string frame;
  const std::vector<std::string> digests = {
      ssdeep::fuzzy_hash(synth_text(10, 2048)).to_string(),
      ssdeep::fuzzy_hash(synth_text(11, 1024)).to_string(),
      ssdeep::fuzzy_hash(synth_text(12, 512)).to_string()};
  net::encode_classify_digests(frame, digests);
  write_seed(target, "classify_digests", frame);
  frame.clear();
  net::encode_classify_path(frame, "/opt/apps/solver@run.trace.csv");
  write_seed(target, "classify_path", frame);
  frame.clear();
  net::encode_stats(frame);
  net::encode_ping(frame);
  net::encode_quit(frame);
  write_seed(target, "control_pipeline", frame);
  frame.clear();
  net::encode_reload(frame, "/var/lib/fhc/model.fhcb");
  write_seed(target, "reload", frame);
  frame.clear();
  net::encode_prediction(frame, 2, false, 0.875, 1234, "gromacs");
  write_seed(target, "prediction_known", frame);
  frame.clear();
  net::encode_prediction(frame, -1, true, 0.31, 99, "");
  write_seed(target, "prediction_unknown", frame);
  frame.clear();
  net::encode_ok(frame, "model.fhcb");
  net::encode_stats_text(frame, "requests=4 unknown_flagged=1");
  net::encode_error(frame, "bad digest");
  net::encode_busy(frame, "queue full");
  write_seed(target, "response_pipeline", frame);
}

void seed_trace() {
  const std::string target = "fuzz_trace";
  std::string csv;
  for (int interval = 1; interval <= 8; ++interval) {
    for (const char* event : {"cycles", "instructions", "cache-misses"}) {
      csv += std::to_string(interval) + ".000501,"
             + std::to_string(1000000 * interval) + ",,"
             + event + ",1000000,100.00,,\n";
    }
  }
  write_seed(target, "perf_csv", csv);
  std::string json;
  for (int interval = 1; interval <= 4; ++interval) {
    json += "{\"interval\" : " + std::to_string(interval) +
            ".000501, \"counter-value\" : \"" +
            std::to_string(500000 * interval) +
            ".000000\", \"event\" : \"cycles\"}\n";
  }
  write_seed(target, "perf_json", json);
  write_seed(target, "not_counted",
             "1.0,<not counted>,,cycles,0,0.00,,\n2.0,123,,cycles,1,50.0,,\n");
  write_seed(target, "single_sample", "1.0,42,,cycles,1,100.0,,\n");
  write_seed(target, "zero_variance",
             "1.0,100,,cycles,1,100.0,,\n2.0,100,,cycles,1,100.0,,\n"
             "3.0,100,,cycles,1,100.0,,\n");
}

void seed_row_differential() {
  const std::string target = "fuzz_row_differential";
  // Digest lists: blocksize ladders are where index pruning must agree
  // with the exhaustive scan (comparable blocksizes differ by one step).
  std::string ladder;
  for (const std::size_t length : {64, 512, 2048, 8192, 32768, 131072}) {
    ladder += ssdeep::fuzzy_hash(
                  synth_text(static_cast<std::uint64_t>(length) + 5, length))
                  .to_string() +
              "\n";
  }
  write_seed(target, "blocksize_ladder", ladder);
  std::string similar;
  for (int i = 0; i < 8; ++i) {
    std::string text = synth_text(77, 4096);
    text.insert(static_cast<std::size_t>(i) * 100, "variant");
    similar += ssdeep::fuzzy_hash(text).to_string() + "\n";
  }
  write_seed(target, "near_duplicates", similar);
  write_seed(target, "short_parts", "3:AAAA:AA\n3:BBBB:BB\n6:CCCC:CC\n");
  // Adjacent-symbol swaps (the paper's transposition edit) at both ends
  // of a full part and in the middle, plus a chained pair ("abc" ->
  // "bca"): the bit-parallel kernels' transposition term must agree with
  // the DP oracle, including at the word's top bit.
  const ssdeep::FuzzyDigest base = ssdeep::fuzzy_hash(synth_text(91, 16384));
  std::string transposed = base.to_string() + "\n";
  for (const std::size_t i : {0u, 1u, 30u, 61u, 62u}) {
    ssdeep::FuzzyDigest variant = base;
    for (std::string* part : {&variant.part1, &variant.part2}) {
      if (i + 1 < part->size()) std::swap((*part)[i], (*part)[i + 1]);
    }
    transposed += variant.to_string() + "\n";
  }
  ssdeep::FuzzyDigest chained = base;
  std::swap(chained.part1[10], chained.part1[11]);
  std::swap(chained.part1[11], chained.part1[12]);
  transposed += chained.to_string() + "\n";
  write_seed(target, "transposed_parts", transposed);
  // Crosswise blocksizes: a text hashed at its natural blocksize, then
  // grown ~2x and ~4x so its blocksize doubles. Pairs one step apart
  // score part1 against part2 (the query's part1 hit bit when its
  // blocksize is the larger, its part2 bit when the smaller); pairs two
  // steps apart never pair.
  std::string crosswise;
  const std::string grown = synth_text(29, 24576);
  for (const std::size_t length : {6144u, 12288u, 24576u}) {
    crosswise += ssdeep::fuzzy_hash(grown.substr(0, length)).to_string() + "\n";
  }
  write_seed(target, "crosswise_blocksizes", crosswise);
  // Many candidates per class: 36 variants of one text, so with the
  // target's round-robin labels each of the 4 classes holds 9 related
  // digests and one class's candidates span several flushes of the row
  // fill's four-slot scoring ring.
  std::string many;
  const std::string shared = synth_text(53, 8192);
  for (std::size_t i = 0; i < 36; ++i) {
    std::string text = shared;
    text.insert(i * 211 % text.size(), "variant" + std::to_string(i));
    many += ssdeep::fuzzy_hash(text).to_string() + "\n";
  }
  write_seed(target, "many_candidates", many);
}

void seed_fuzzy_hash() {
  const std::string target = "fuzz_fuzzy_hash";
  // Header: flags (split count in bits 0-2, copy bit 3), then one u16le
  // per split point; the payload follows.
  const auto seed = [&](const std::string& name, std::uint8_t flags,
                        std::vector<std::uint16_t> cuts, std::string_view payload) {
    std::string bytes(1, static_cast<char>(flags | cuts.size()));
    for (const std::uint16_t cut : cuts) {
      bytes.push_back(static_cast<char>(cut & 0xff));
      bytes.push_back(static_cast<char>(cut >> 8));
    }
    bytes += payload;
    write_seed(target, name, bytes);
  };
  seed("empty", 0, {}, "");
  seed("short_one_split", 0, {3}, "abcdefghij");
  seed("text_one_shot", 0, {}, synth_text(3, 700));
  // Crosses the 192- and 384-byte boundaries where digest() moves up a
  // level, cut around them and continued on a copy.
  seed("text_boundaries", 8, {191, 192, 384, 385}, synth_text(5, 1200));
  const std::vector<std::uint8_t> noise = [] {
    util::Rng rng(17);
    std::vector<std::uint8_t> out(6000);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
    return out;
  }();
  seed("noise_many_splits", 0, {1, 7, 100, 1000, 3071, 3072, 5999},
       std::string_view(reinterpret_cast<const char*>(noise.data()), noise.size()));
  // Two-symbol input: long runs make the rolling hash repeat itself.
  util::Rng rng(23);
  std::string binary(4000, 'a');
  for (char& c : binary) c = rng.next_below(2) == 0 ? 'a' : 'b';
  seed("two_symbols_copy", 8, {2000}, binary);
  // The head of a corpus ELF image, the file channel's real input: large
  // enough that streaming keeps more than eight levels absorbing and the
  // one-shot digest is capped at a prolog-sized level.
  const corpus::Corpus corpus(corpus::scaled_app_classes(0.02), 42);
  std::vector<std::uint8_t> image = corpus.sample_bytes(corpus.samples().front());
  image.resize(std::min<std::size_t>(image.size(), 32 << 10));
  seed("corpus_image_copy", 8, {5000, 17000, 29000},
       std::string_view(reinterpret_cast<const char*>(image.data()), image.size()));
}

void seed_strings() {
  const std::string target = "fuzz_strings";
  write_seed(target, "empty", "");
  write_seed(target, "three", "abc");
  write_seed(target, "four", "abcd");
  write_seed(target, "tab_splits", "abcd\tefgh");
  // Runs of 3, 4 and 5 straddling the 64- and 128-byte block seams, and
  // one that touches the end of the image.
  std::string seams(190, '\0');
  seams.replace(62, 3, "abc");
  seams.replace(125, 4, "wxyz");
  seams.replace(150, 5, "12345");
  seams.replace(186, 4, "tail");
  write_seed(target, "block_seams", seams);
  write_seed(target, "all_printable", synth_text(41, 200));
  // 0xa0 and 0xfe share their low 7 bits with ' ' and '~'.
  write_seed(target, "high_bit_twins",
             std::string_view("abcd\xa0"
                              "efgh\xfe"
                              "ijkl\x7f"
                              "mnop\x1f"
                              "qrst",
                              24));
  util::Rng rng(43);
  std::vector<std::uint8_t> noise(300);
  for (auto& b : noise) {
    b = rng.next_below(3) == 0 ? static_cast<std::uint8_t>(rng.next_below(256))
                               : static_cast<std::uint8_t>(0x20 + rng.next_below(95));
  }
  write_seed(target, "mixed_noise", noise);
  elf::ElfSpec spec;
  spec.text = synth_bytes(44, 256);
  spec.rodata = synth_bytes(45, 128);
  spec.symbols = {{.name = "main"}, {.name = "solve_step", .value = 16}};
  write_seed(target, "elf", elf::write_elf(spec));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus OUTDIR\n");
    return 2;
  }
  g_outdir = argv[1];
  seed_parse_digest();
  seed_elf_reader();
  seed_model_load();
  seed_net_frame();
  seed_trace();
  seed_row_differential();
  seed_fuzzy_hash();
  seed_strings();
  std::printf("make_seed_corpus: corpora written under %s\n", argv[1]);
  return 0;
}
