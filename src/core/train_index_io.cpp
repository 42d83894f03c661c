// TrainIndex <-> sectioned-container I/O: the v3 model format's
// zero-copy half.
//
// serialize() dumps the canonical pools verbatim — the same spans the
// live index reads — so writing is a sequence of raw section emissions
// with no per-digest work. attach() is the inverse: it reinterprets the
// mapped sections as the pools, runs the structural validation shared
// with the owned constructor (wire()), and the index is live without
// preparing a digest or building a gram index. Because serialize() reads
// the views (owned or mapped alike), save -> attach -> save round-trips
// byte-identically.
//
// The counts header is conditional on the channel roster: a static-triple
// index emits the legacy 48-byte version-1 Meta (so pre-registry model
// files and new static-triple saves are the same bytes) and no
// channel-names section; any other ChannelSet emits the version-2
// dynamic layout plus a "channels" section holding the roster text.
#include <cstring>

#include "core/feature_matrix.hpp"
#include "util/sectioned.hpp"

namespace fhc::core {

namespace {

template <class T>
std::span<const std::byte> bytes_of(std::span<const T> items) {
  return std::as_bytes(items);
}

void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

}  // namespace

void TrainIndex::serialize(util::SectionedWriter& writer) const {
  if (channels_.is_static_triple()) {
    Meta meta;
    meta.version = 1;
    meta.n_classes = meta_.n_classes;
    meta.train_count = meta_.train_count;
    std::copy(meta_.entry_counts.begin(), meta_.entry_counts.end(),
              meta.entry_counts.begin());
    std::copy(meta_.dir_counts.begin(), meta_.dir_counts.end(),
              meta.dir_counts.begin());
    writer.add_copy(model_section::kMeta,
                    std::as_bytes(std::span<const Meta>(&meta, 1)));
  } else {
    std::vector<std::byte> meta;
    meta.reserve(24 + 8 * n_channels());
    append_u32(meta, 2);  // version
    append_u32(meta, meta_.n_classes);
    const std::uint64_t train_count = meta_.train_count;
    const auto* p = reinterpret_cast<const std::byte*>(&train_count);
    meta.insert(meta.end(), p, p + sizeof train_count);
    append_u32(meta, static_cast<std::uint32_t>(n_channels()));
    append_u32(meta, 0);  // reserved
    for (const std::uint32_t c : meta_.entry_counts) append_u32(meta, c);
    for (const std::uint32_t c : meta_.dir_counts) append_u32(meta, c);
    writer.add_copy(model_section::kMeta, meta);

    const std::string roster = channel_set_to_text(channels_);
    writer.add_copy(model_section::kChannels,
                    std::as_bytes(std::span<const char>(roster)));
  }
  writer.add(model_section::kCellBuckets, bytes_of(cell_bucket_counts_));
  writer.add(model_section::kBuckets, bytes_of(bucket_meta_));
  writer.add(model_section::kRecords, bytes_of(recs_));
  writer.add(model_section::kTextPool, bytes_of(text_pool_));
  writer.add(model_section::kBucketIds, bytes_of(bucket_ids_));
  writer.add(model_section::kClassIds, bytes_of(class_ids_));
  writer.add(model_section::kEntries, bytes_of(entries_));
  writer.add(model_section::kGramDir, bytes_of(gram_dir_));
  writer.add(model_section::kGramKeys, bytes_of(gram_keys_));
  writer.add(model_section::kGramOffsets, bytes_of(gram_offsets_));
  writer.add(model_section::kPostings, bytes_of(gram_postings_));
}

std::unique_ptr<TrainIndex> TrainIndex::attach(
    const util::SectionedView& container, std::vector<std::string> class_names,
    ChannelSet channels, std::size_t train_count, RawDigestLoader raw_loader,
    std::shared_ptr<const void> keepalive) {
  std::unique_ptr<TrainIndex> index(new TrainIndex());
  index->class_names_ = std::move(class_names);
  index->channels_ = std::move(channels);
  index->train_sample_count_ = train_count;
  index->attached_ = true;
  index->keepalive_ = std::move(keepalive);
  index->raw_loader_ = std::move(raw_loader);

  std::span<const std::byte> meta_bytes;
  if (!container.find(model_section::kMeta, meta_bytes)) {
    throw std::runtime_error("TrainIndex: missing meta section");
  }
  index->meta_ = parse_meta(meta_bytes);
  if (index->meta_.version == 1) {
    // A version-1 container is always a static-triple model; the preamble
    // the caller parsed must agree.
    if (!index->channels_.is_static_triple()) {
      throw std::runtime_error(
          "TrainIndex: version-1 container with non-default channel set");
    }
  } else {
    if (index->meta_.entry_counts.size() != index->n_channels()) {
      throw std::runtime_error("TrainIndex: meta channel count mismatch");
    }
    // The roster section must match the set declared by the preamble —
    // a consistency check for hand-edited or truncated containers.
    std::span<const std::byte> roster_bytes;
    if (!container.find(model_section::kChannels, roster_bytes)) {
      throw std::runtime_error("TrainIndex: missing channel-names section");
    }
    const ChannelSet roster = channel_set_from_text(std::string_view(
        reinterpret_cast<const char*>(roster_bytes.data()), roster_bytes.size()));
    if (!(roster == index->channels_)) {
      throw std::runtime_error("TrainIndex: channel-names section mismatch");
    }
  }

  index->cell_bucket_counts_ =
      util::section_as<std::uint32_t>(container, model_section::kCellBuckets);
  index->bucket_meta_ =
      util::section_as<BucketMeta>(container, model_section::kBuckets);
  index->recs_ = util::section_as<PreparedRec>(container, model_section::kRecords);
  index->text_pool_ = util::section_as<char>(container, model_section::kTextPool);
  index->bucket_ids_ =
      util::section_as<std::int32_t>(container, model_section::kBucketIds);
  index->class_ids_ =
      util::section_as<std::int32_t>(container, model_section::kClassIds);
  index->entries_ = util::section_as<GramEntry>(container, model_section::kEntries);
  index->gram_dir_ =
      util::section_as<GramDirEntry>(container, model_section::kGramDir);
  index->gram_keys_ =
      util::section_as<std::uint64_t>(container, model_section::kGramKeys);
  index->gram_offsets_ =
      util::section_as<std::uint32_t>(container, model_section::kGramOffsets);
  index->gram_postings_ =
      util::section_as<std::uint32_t>(container, model_section::kPostings);

  index->wire();
  return index;
}

void TrainIndex::materialize_raw() const {
  // Owned indexes filled digests_ eagerly; attached ones parse the
  // retained preamble rows exactly once, on the first serialization or
  // inspection request — never on the classify path.
  if (!raw_loader_) return;
  std::call_once(raw_once_, [this] {
    auto [hashes, labels] = raw_loader_();
    const int k = n_classes();
    if (hashes.size() != train_sample_count_ || labels.size() != hashes.size()) {
      throw std::runtime_error("TrainIndex: raw digest loader size mismatch");
    }
    digests_.assign(n_channels(), std::vector<std::vector<ssdeep::FuzzyDigest>>(
                                      static_cast<std::size_t>(k)));
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      const int label = labels[i];
      if (label < 0 || label >= k) {
        throw std::runtime_error("TrainIndex: raw digest loader label out of range");
      }
      for (std::size_t f = 0; f < n_channels(); ++f) {
        digests_[f][static_cast<std::size_t>(label)].push_back(
            hashes[i].channel(f));
      }
    }
  });
}

}  // namespace fhc::core
