// fhc-inspect: print what is inside a model file without loading it.
//
//   fhc_inspect MODEL
//
// For a v3 sectioned container ("FHCMDLB3") this prints the section
// table — tag, offset, size, checksum, verification status — plus the
// TrainIndex counts header with a per-channel breakdown labelled by
// channel *name* (from the "channels" roster section; a version-1 counts
// header implies the legacy static triple) and the class/digest counts
// from the model preamble, and the forest image's shape (trees, nodes,
// leaves, stored leaf entries, section bytes). Text models get a shorter
// summary. Exit status is non-zero when the file is damaged (bad table,
// checksum mismatch), internally inconsistent (counts header vs channel
// roster vs gram-index section sizes), or in a retired format (any other
// "FHCMDLB*" binary model version, or a forest in the dense "FHCFRST1"
// image), which makes the tool usable as a model fsck in deploy scripts.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>

#include "core/classifier.hpp"
#include "core/feature_matrix.hpp"
#include "ml/random_forest.hpp"
#include "util/model_map.hpp"
#include "util/sectioned.hpp"

using namespace fhc;

namespace {

bool starts_with(std::span<const std::byte> bytes, std::string_view magic) {
  return bytes.size() >= magic.size() &&
         std::memcmp(bytes.data(), magic.data(), magic.size()) == 0;
}

/// Pulls "classes K" / "train N" out of preamble text without a full parse.
void print_preamble_counts(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    if (line.rfind("classes ", 0) == 0 || line.rfind("train ", 0) == 0) {
      std::printf("  %.*s\n", static_cast<int>(line.size()), line.data());
    }
    if (line.rfind("train ", 0) == 0) return;  // digest rows follow
    if (nl == std::string_view::npos) return;
    pos = nl + 1;
  }
}

/// Validates the optional open-set calibration line in the preamble
/// header: "calibration <threshold> <target_fpr> <holdout_count>" with
/// threshold/target_fpr in [0,1]. holdout_count 0 marks a manual
/// deployment override (--unknown-threshold) rather than a fit-time
/// calibration. Absent means the legacy "never reject" default. Returns
/// non-zero (and reports on stderr) when the line is present but
/// malformed — a model that would refuse to load.
int check_calibration(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    if (line.rfind("calibration ", 0) == 0) {
      std::istringstream fields{std::string(line.substr(12))};
      double threshold = 0.0;
      double target_fpr = 0.0;
      std::uint32_t holdout = 0;
      std::string extra;
      if (!(fields >> threshold >> target_fpr >> holdout) || (fields >> extra) ||
          threshold < 0.0 || threshold > 1.0 || target_fpr < 0.0 ||
          target_fpr > 1.0) {
        std::fprintf(stderr,
                     "fhc_inspect: MISMATCH: malformed calibration line "
                     "'%.*s'\n",
                     static_cast<int>(line.size()), line.data());
        return 1;
      }
      if (holdout == 0) {
        std::printf("  calibration: reject below %.6f (manual override)\n",
                    threshold);
      } else {
        std::printf(
            "  calibration: reject below %.6f (target FPR %.3f, %u held out)\n",
            threshold, target_fpr, holdout);
      }
      return 0;
    }
    // The calibration line can only sit in the config block, before the
    // class-name lines (which may contain arbitrary text).
    if (line.rfind("classes ", 0) == 0) break;
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  std::printf("  calibration: none (never reject beyond the threshold)\n");
  return 0;
}

/// The forest image's header, validated the way the loader validates it
/// (a retired FHCFRST1 image fails here, naming the fix).
int print_forest_shape(const util::SectionedView& view) {
  std::span<const std::byte> forest;
  if (!view.find("forest", forest)) {
    std::fprintf(stderr, "fhc_inspect: no forest section\n");
    return 1;
  }
  try {
    const ml::FlatForest::Shape shape = ml::RandomForest::binary_shape(forest);
    std::printf("forest: %zu trees, %zu nodes, %zu leaves, %zu leaf entries, "
                "%zu section bytes\n",
                shape.tree_count, shape.total_nodes, shape.leaf_count,
                shape.leaf_entries, forest.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_inspect: %s\n", e.what());
    return 1;
  }
  return 0;
}

int inspect_binary(const util::ModelMap& map) {
  util::SectionedView view;
  try {
    view = util::SectionedView::attach(map.bytes(), core::kBinaryModelMagic);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_inspect: damaged container: %s\n", e.what());
    return 1;
  }
  std::printf("format: v3 sectioned container (%.*s), %zu bytes, %zu sections\n",
              8, reinterpret_cast<const char*>(map.bytes().data()),
              map.bytes().size(), view.entries().size());
  std::printf("%-10s %12s %12s  %-16s\n", "tag", "offset", "size", "checksum");
  for (const util::SectionEntry& entry : view.entries()) {
    const std::string tag(entry.tag_view());
    std::printf("%-10s %12" PRIu64 " %12" PRIu64 "  %016" PRIx64 "\n", tag.c_str(),
                entry.offset, entry.size, entry.checksum);
  }
  try {
    view.verify_checksums();
    std::printf("checksums: all %zu sections verified\n", view.entries().size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_inspect: %s\n", e.what());
    return 1;
  }

  // Counts header + channel roster, cross-checked against each other and
  // against the gram-index section sizes they claim to describe.
  core::TrainIndex::MetaInfo meta;
  try {
    meta = core::TrainIndex::parse_meta(view.section(core::model_section::kMeta));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_inspect: bad counts header: %s\n", e.what());
    return 1;
  }
  core::ChannelSet channels;  // default: the legacy static triple
  std::span<const std::byte> roster_bytes;
  const bool has_roster =
      view.find(core::model_section::kChannels, roster_bytes);
  if (has_roster) {
    try {
      channels = core::channel_set_from_text(std::string_view(
          reinterpret_cast<const char*>(roster_bytes.data()), roster_bytes.size()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fhc_inspect: bad channel roster: %s\n", e.what());
      return 1;
    }
  }
  std::printf("index: version %u, %u classes, %" PRIu64
              " training samples, %zu channels%s\n",
              meta.version, meta.n_classes, meta.train_count,
              meta.entry_counts.size(),
              has_roster ? "" : " (implicit static triple)");
  int status = 0;
  if (meta.version == 1 && has_roster) {
    std::fprintf(stderr,
                 "fhc_inspect: MISMATCH: version-1 counts header next to a "
                 "channel roster section\n");
    status = 1;
  }
  if (channels.size() != meta.entry_counts.size()) {
    std::fprintf(stderr,
                 "fhc_inspect: MISMATCH: counts header declares %zu channels, "
                 "roster names %zu\n",
                 meta.entry_counts.size(), channels.size());
    status = 1;
  }
  const std::size_t shown = std::min(channels.size(), meta.entry_counts.size());
  for (std::size_t f = 0; f < shown; ++f) {
    std::printf("  channel %zu  %-16s %-8s %10u entries %6u gram buckets\n", f,
                channels[f].name.c_str(),
                std::string(core::channel_kind_name(channels[f].kind)).c_str(),
                meta.entry_counts[f], meta.dir_counts[f]);
  }
  // The per-channel counts are the sole description of how the flat
  // "gentries"/"gramdir" sections split; a disagreement means the header
  // and the payload come from different models.
  const auto check_section = [&](std::string_view tag, std::uint64_t want_elems,
                                 std::size_t elem_size) {
    std::span<const std::byte> payload;
    if (!view.find(tag, payload)) {
      if (want_elems == 0) return;
      std::fprintf(stderr,
                   "fhc_inspect: MISMATCH: counts header expects %" PRIu64
                   " elements but section '%.*s' is absent\n",
                   want_elems, static_cast<int>(tag.size()), tag.data());
      status = 1;
      return;
    }
    if (payload.size() != want_elems * elem_size) {
      std::fprintf(stderr,
                   "fhc_inspect: MISMATCH: section '%.*s' holds %zu bytes, "
                   "counts header implies %" PRIu64 "\n",
                   static_cast<int>(tag.size()), tag.data(), payload.size(),
                   want_elems * elem_size);
      status = 1;
    }
  };
  check_section(core::model_section::kEntries,
                std::accumulate(meta.entry_counts.begin(), meta.entry_counts.end(),
                                std::uint64_t{0}),
                sizeof(core::TrainIndex::GramEntry));
  check_section(core::model_section::kGramDir,
                std::accumulate(meta.dir_counts.begin(), meta.dir_counts.end(),
                                std::uint64_t{0}),
                sizeof(core::TrainIndex::GramDirEntry));
  if (status == 0) {
    std::printf("consistency: counts header, channel roster, and gram-index "
                "sections agree\n");
  }
  const auto preamble = view.section("preamble");
  const std::string_view preamble_text(
      reinterpret_cast<const char*>(preamble.data()), preamble.size());
  print_preamble_counts(preamble_text);
  if (check_calibration(preamble_text) != 0) status = 1;
  if (print_forest_shape(view) != 0) status = 1;
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: fhc_inspect MODEL\n");
    return 2;
  }
  try {
    const util::ModelMap map{std::string(argv[1])};
    if (starts_with(map.bytes(), core::kBinaryModelMagic)) {
      return inspect_binary(map);
    }
    if (core::FuzzyHashClassifier::is_binary_model(map.bytes())) {
      std::fprintf(stderr, "fhc_inspect: %s\n",
                   core::retired_binary_model_message(map.bytes()).c_str());
      return 1;
    }
    std::printf("format: text model, %zu bytes\n", map.bytes().size());
    const std::string_view text(reinterpret_cast<const char*>(map.bytes().data()),
                                map.bytes().size());
    const std::size_t first_nl = text.find('\n');
    if (first_nl != std::string_view::npos) {
      std::printf("  magic line: %.*s\n", static_cast<int>(first_nl), text.data());
      print_preamble_counts(text.substr(first_nl + 1));
      return check_calibration(text.substr(first_nl + 1));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_inspect: %s\n", e.what());
    return 1;
  }
}
