#include "core/feature_matrix.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fhc::core {

namespace {

[[noreturn]] void bad_index(const std::string& what) {
  throw std::runtime_error("TrainIndex: " + what);
}

/// Structural validation of one CSR index against the pools it was carved
/// from: monotonic offsets bracketing the posting array, strictly
/// ascending keys, postings addressing real entries. Runs on both the
/// owned and attach paths (linear, memory-bandwidth cheap) so a corrupt
/// or adversarial model can never index out of bounds.
void validate_csr(std::span<const std::uint64_t> keys,
                  std::span<const std::uint32_t> offsets,
                  std::span<const std::uint32_t> postings, std::size_t universe) {
  if (offsets.size() != keys.size() + 1) bad_index("CSR offsets size");
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<std::uint32_t>(postings.size())) {
    bad_index("CSR offsets bracket");
  }
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) bad_index("CSR offsets not monotonic");
  }
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] >= keys[i]) bad_index("CSR keys not strictly ascending");
  }
  for (const std::uint32_t p : postings) {
    if (p >= universe) bad_index("CSR posting out of range");
  }
}

}  // namespace

std::string channel_set_to_text(const ChannelSet& channels) {
  std::string out;
  for (const ChannelDesc& channel : channels) {
    out += channel.name;
    out += ' ';
    out += std::to_string(static_cast<int>(channel.kind));
    out += '\n';
  }
  return out;
}

ChannelSet channel_set_from_text(std::string_view text) {
  std::vector<ChannelDesc> descs;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos || space == 0) {
      throw std::runtime_error("channel set: malformed line");
    }
    const std::string_view kind_text = line.substr(space + 1);
    int kind = -1;
    const auto [end, ec] = std::from_chars(
        kind_text.data(), kind_text.data() + kind_text.size(), kind);
    if (ec != std::errc{} || end != kind_text.data() + kind_text.size() ||
        (kind != 0 && kind != 1)) {
      throw std::runtime_error("channel set: bad channel kind");
    }
    descs.push_back(ChannelDesc{std::string(line.substr(0, space)),
                                static_cast<ChannelKind>(kind)});
  }
  return ChannelSet(std::move(descs));
}

TrainIndex::MetaInfo TrainIndex::parse_meta(std::span<const std::byte> bytes) {
  const auto read_u32 = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    return v;
  };
  if (bytes.size() < 16) bad_index("meta section too small");
  MetaInfo info;
  info.version = read_u32(0);
  info.n_classes = read_u32(4);
  std::memcpy(&info.train_count, bytes.data() + 8, sizeof info.train_count);
  if (info.version == 1) {
    if (bytes.size() != sizeof(Meta)) bad_index("meta section size");
    Meta meta;
    std::memcpy(&meta, bytes.data(), sizeof meta);
    info.entry_counts.assign(meta.entry_counts.begin(), meta.entry_counts.end());
    info.dir_counts.assign(meta.dir_counts.begin(), meta.dir_counts.end());
  } else if (info.version == 2) {
    if (bytes.size() < 24) bad_index("meta section too small");
    const std::uint32_t n = read_u32(16);
    if (n < 1 || n > kMaxChannels) bad_index("meta channel count");
    if (bytes.size() != 24 + 8 * static_cast<std::size_t>(n)) {
      bad_index("meta section size");
    }
    info.entry_counts.reserve(n);
    info.dir_counts.reserve(n);
    for (std::uint32_t f = 0; f < n; ++f) {
      info.entry_counts.push_back(read_u32(24 + 4 * static_cast<std::size_t>(f)));
    }
    for (std::uint32_t f = 0; f < n; ++f) {
      info.dir_counts.push_back(
          read_u32(24 + 4 * static_cast<std::size_t>(n) +
                   4 * static_cast<std::size_t>(f)));
    }
  } else {
    bad_index("unsupported index version");
  }
  return info;
}

TrainIndex::TrainIndex(const std::vector<FeatureHashes>& train_hashes,
                       const std::vector<int>& labels,
                       std::vector<std::string> class_names, ChannelSet channels)
    : class_names_(std::move(class_names)), channels_(std::move(channels)) {
  if (train_hashes.size() != labels.size()) {
    throw std::invalid_argument("TrainIndex: size mismatch");
  }
  const int k = n_classes();
  const std::size_t n = n_channels();
  const std::size_t cells = n * static_cast<std::size_t>(k);
  train_sample_count_ = train_hashes.size();

  // Pass 1: prepare every digest once (run-normalized parts + presorted
  // gram arrays) into temporary per-(channel, class, blocksize) buckets,
  // and fill the eager raw-digest view. Samples carrying fewer channels
  // than the set contribute the empty digest on the missing ones.
  struct TempBucket {
    std::uint32_t blocksize = 0;
    std::vector<ssdeep::PreparedDigest> digests;
    std::vector<std::int32_t> ids;
  };
  std::vector<std::vector<TempBucket>> temp(cells);
  std::vector<std::vector<std::int32_t>> per_class_ids(static_cast<std::size_t>(k));
  digests_.assign(n, std::vector<std::vector<ssdeep::FuzzyDigest>>(
                         static_cast<std::size_t>(k)));

  for (std::size_t i = 0; i < train_hashes.size(); ++i) {
    const int label = labels[i];
    if (label < 0 || label >= k) {
      throw std::invalid_argument("TrainIndex: label out of range");
    }
    const auto c = static_cast<std::size_t>(label);
    for (std::size_t f = 0; f < n; ++f) {
      const ssdeep::FuzzyDigest& digest = train_hashes[i].channel(f);
      digests_[f][c].push_back(digest);

      // Normalize once here, into the bucket of this blocksize (at most
      // kNumBlockhashes buckets per cell — a linear scan stays cheap).
      auto& buckets = temp[f * static_cast<std::size_t>(k) + c];
      auto it = std::find_if(buckets.begin(), buckets.end(),
                             [&](const TempBucket& bucket) {
                               return bucket.blocksize == digest.blocksize;
                             });
      if (it == buckets.end()) {
        buckets.push_back(TempBucket{digest.blocksize, {}, {}});
        it = buckets.end() - 1;
      }
      it->digests.emplace_back(digest);
      it->ids.push_back(static_cast<std::int32_t>(i));
    }
    per_class_ids[c].push_back(static_cast<std::int32_t>(i));
  }

  // Pass 2: flatten the buckets into the canonical pools — exactly the
  // byte layout serialize() emits, so the same spans serve both the live
  // index and the writer, and save -> attach -> save is byte-stable.
  cell_bucket_counts_store_.reserve(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    cell_bucket_counts_store_.push_back(
        static_cast<std::uint32_t>(temp[cell].size()));
    for (const TempBucket& bucket : temp[cell]) {
      bucket_meta_store_.push_back(
          BucketMeta{bucket.blocksize, static_cast<std::uint32_t>(bucket.digests.size())});
      for (std::size_t p = 0; p < bucket.digests.size(); ++p) {
        const ssdeep::PreparedDigest& digest = bucket.digests[p];
        PreparedRec rec;
        rec.t1_off = text_store_.size();
        rec.t1_len = static_cast<std::uint32_t>(digest.part1().text.size());
        text_store_.insert(text_store_.end(), digest.part1().text.begin(),
                           digest.part1().text.end());
        rec.t2_off = text_store_.size();
        rec.t2_len = static_cast<std::uint32_t>(digest.part2().text.size());
        text_store_.insert(text_store_.end(), digest.part2().text.begin(),
                           digest.part2().text.end());
        recs_store_.push_back(rec);
        bucket_ids_store_.push_back(bucket.ids[p]);
      }
    }
  }
  for (const auto& ids : per_class_ids) {
    class_ids_store_.insert(class_ids_store_.end(), ids.begin(), ids.end());
  }

  // Pass 3: invert each channel's buckets into the 7-gram candidate
  // index. Entry ids are handed out in (cls, bucket, pos) iteration
  // order — the property a sorted candidate list's class grouping relies
  // on — and the sealed CSR arrays are flattened into the pools in
  // directory order (blocksizes by first occurrence, part1 then part2).
  meta_.version = channels_.is_static_triple() ? 1 : 2;
  meta_.entry_counts.assign(n, 0);
  meta_.dir_counts.assign(n, 0);
  for (std::size_t f = 0; f < n; ++f) {
    struct Builder {
      std::uint32_t blocksize = 0;
      ssdeep::GramIndex part1;
      ssdeep::GramIndex part2;
    };
    std::vector<Builder> builders;
    std::uint32_t entry_count = 0;
    for (int c = 0; c < k; ++c) {
      const std::size_t cell =
          f * static_cast<std::size_t>(k) + static_cast<std::size_t>(c);
      for (std::size_t b = 0; b < temp[cell].size(); ++b) {
        const TempBucket& bucket = temp[cell][b];
        auto bs_it = std::find_if(builders.begin(), builders.end(),
                                  [&](const Builder& builder) {
                                    return builder.blocksize == bucket.blocksize;
                                  });
        if (bs_it == builders.end()) {
          builders.push_back(Builder{bucket.blocksize, {}, {}});
          bs_it = builders.end() - 1;
        }
        for (std::size_t p = 0; p < bucket.digests.size(); ++p) {
          const std::uint32_t entry = entry_count++;
          entries_store_.push_back(GramEntry{c, static_cast<std::int32_t>(b),
                                             static_cast<std::int32_t>(p)});
          bs_it->part1.add(entry, bucket.digests[p].part1().grams);
          bs_it->part2.add(entry, bucket.digests[p].part2().grams);
        }
      }
    }
    meta_.entry_counts[f] = entry_count;
    meta_.dir_counts[f] = static_cast<std::uint32_t>(builders.size());
    for (Builder& builder : builders) {
      builder.part1.finalize();
      builder.part2.finalize();
      const ssdeep::GramIndexView v1 = builder.part1.view();
      const ssdeep::GramIndexView v2 = builder.part2.view();
      gram_dir_store_.push_back(GramDirEntry{
          builder.blocksize, static_cast<std::uint32_t>(v1.gram_count()),
          static_cast<std::uint32_t>(v2.gram_count()),
          static_cast<std::uint32_t>(v1.posting_count()),
          static_cast<std::uint32_t>(v2.posting_count())});
      for (const ssdeep::GramIndexView& v : {v1, v2}) {
        gram_keys_store_.insert(gram_keys_store_.end(), v.keys().begin(),
                                v.keys().end());
        gram_offsets_store_.insert(gram_offsets_store_.end(), v.offsets().begin(),
                                   v.offsets().end());
        gram_postings_store_.insert(gram_postings_store_.end(),
                                    v.postings().begin(), v.postings().end());
      }
    }
  }

  meta_.n_classes = static_cast<std::uint32_t>(k);
  meta_.train_count = train_sample_count_;

  cell_bucket_counts_ = cell_bucket_counts_store_;
  bucket_meta_ = bucket_meta_store_;
  recs_ = recs_store_;
  text_pool_ = text_store_;
  bucket_ids_ = bucket_ids_store_;
  class_ids_ = class_ids_store_;
  entries_ = entries_store_;
  gram_dir_ = gram_dir_store_;
  gram_keys_ = gram_keys_store_;
  gram_offsets_ = gram_offsets_store_;
  gram_postings_ = gram_postings_store_;
  wire();
}

void TrainIndex::wire() {
  const int k = n_classes();
  if (k <= 0) bad_index("no classes");
  const std::size_t n = n_channels();
  const std::size_t cells = n * static_cast<std::size_t>(k);
  if (meta_.n_classes != static_cast<std::uint32_t>(k)) bad_index("meta class count");
  if (meta_.train_count != train_sample_count_) bad_index("meta train count");
  if (meta_.entry_counts.size() != n || meta_.dir_counts.size() != n) {
    bad_index("meta channel count");
  }
  if (cell_bucket_counts_.size() != cells) bad_index("cell table size");
  if (bucket_ids_.size() != recs_.size()) bad_index("bucket id pool size");

  // Buckets: carve each cell's recs/ids out of the pools in table order.
  std::size_t total_buckets = 0;
  for (const std::uint32_t c : cell_bucket_counts_) total_buckets += c;
  if (bucket_meta_.size() != total_buckets) bad_index("bucket table size");
  buckets_.clear();
  buckets_.reserve(total_buckets);
  cell_offsets_.assign(cells + 1, 0);
  std::size_t rec_at = 0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    cell_offsets_[cell] = buckets_.size();
    for (std::uint32_t b = 0; b < cell_bucket_counts_[cell]; ++b) {
      const BucketMeta& meta = bucket_meta_[buckets_.size()];
      if (meta.count > recs_.size() - rec_at) bad_index("bucket overruns rec pool");
      buckets_.push_back(PreparedBucket{meta.blocksize,
                                        recs_.subspan(rec_at, meta.count),
                                        bucket_ids_.subspan(rec_at, meta.count)});
      rec_at += meta.count;
    }
  }
  cell_offsets_[cells] = buckets_.size();
  if (rec_at != recs_.size()) bad_index("rec pool size");

  // Every record's text slices must land inside the pool — after this
  // loop view_of() is branch-free by construction.
  for (const PreparedRec& rec : recs_) {
    if (rec.t1_off > text_pool_.size() || rec.t1_len > text_pool_.size() - rec.t1_off ||
        rec.t2_off > text_pool_.size() || rec.t2_len > text_pool_.size() - rec.t2_off) {
      bad_index("record text slice out of range");
    }
  }
  for (const std::int32_t id : bucket_ids_) {
    if (id < 0 || static_cast<std::size_t>(id) >= train_sample_count_) {
      bad_index("bucket train id out of range");
    }
  }

  // Per-channel digest counts: each training sample contributes exactly
  // one digest per channel.
  for (std::size_t f = 0; f < n; ++f) {
    std::size_t channel_digests = 0;
    for (std::size_t cell = f * static_cast<std::size_t>(k);
         cell < (f + 1) * static_cast<std::size_t>(k); ++cell) {
      for (std::size_t b = cell_offsets_[cell]; b < cell_offsets_[cell + 1]; ++b) {
        channel_digests += buckets_[b].recs.size();
      }
    }
    if (channel_digests != train_sample_count_ ||
        meta_.entry_counts[f] != channel_digests) {
      bad_index("channel digest count");
    }
  }

  // Class id table: class c owns as many ids as channel 0 holds digests
  // for it.
  if (class_ids_.size() != train_sample_count_) bad_index("class id pool size");
  class_id_offsets_.assign(static_cast<std::size_t>(k) + 1, 0);
  std::size_t id_at = 0;
  for (int c = 0; c < k; ++c) {
    class_id_offsets_[static_cast<std::size_t>(c)] = id_at;
    const auto cell = static_cast<std::size_t>(c);
    for (std::size_t b = cell_offsets_[cell]; b < cell_offsets_[cell + 1]; ++b) {
      id_at += buckets_[b].recs.size();
    }
  }
  class_id_offsets_[static_cast<std::size_t>(k)] = id_at;
  if (id_at != class_ids_.size()) bad_index("class id partition");
  for (const std::int32_t id : class_ids_) {
    if (id < 0 || static_cast<std::size_t>(id) >= train_sample_count_) {
      bad_index("class train id out of range");
    }
  }

  // Channel gram indexes: carve each directory entry's CSR arrays from
  // the pools cumulatively and validate their internal shape.
  gram_index_.assign(n, ChannelGramIndex{});
  std::size_t entry_at = 0;
  std::size_t dir_at = 0;
  std::size_t key_at = 0;
  std::size_t off_at = 0;
  std::size_t post_at = 0;
  for (std::size_t f = 0; f < n; ++f) {
    ChannelGramIndex& channel = gram_index_[f];
    const std::uint32_t n_entries = meta_.entry_counts[f];
    if (n_entries > entries_.size() - entry_at) bad_index("entry pool size");
    channel.entries = entries_.subspan(entry_at, n_entries);
    entry_at += n_entries;

    const std::uint32_t n_dir = meta_.dir_counts[f];
    if (n_dir > gram_dir_.size() - dir_at) bad_index("gram directory size");
    channel.by_blocksize.reserve(n_dir);
    for (std::uint32_t d = 0; d < n_dir; ++d) {
      const GramDirEntry& dir = gram_dir_[dir_at + d];
      ChannelGramIndex::BlocksizeIndex bsi;
      bsi.blocksize = dir.blocksize;
      const auto carve = [&](std::uint32_t n_keys, std::uint32_t n_postings) {
        if (n_keys > gram_keys_.size() - key_at ||
            gram_offsets_.size() - off_at < std::size_t{n_keys} + 1 ||
            n_postings > gram_postings_.size() - post_at) {
          bad_index("CSR overruns gram pools");
        }
        const ssdeep::GramIndexView view(
            gram_keys_.subspan(key_at, n_keys),
            gram_offsets_.subspan(off_at, std::size_t{n_keys} + 1),
            gram_postings_.subspan(post_at, n_postings));
        key_at += n_keys;
        off_at += std::size_t{n_keys} + 1;
        post_at += n_postings;
        validate_csr(view.keys(), view.offsets(), view.postings(), n_entries);
        return view;
      };
      bsi.part1 = carve(dir.p1_keys, dir.p1_postings);
      bsi.part2 = carve(dir.p2_keys, dir.p2_postings);
      channel.by_blocksize.push_back(bsi);
    }
    dir_at += n_dir;
  }
  if (entry_at != entries_.size() || dir_at != gram_dir_.size() ||
      key_at != gram_keys_.size() || off_at != gram_offsets_.size() ||
      post_at != gram_postings_.size()) {
    bad_index("gram pool sizes");
  }

  // Every gram entry must address a real (cell, bucket, pos) digest.
  for (std::size_t f = 0; f < n; ++f) {
    for (const GramEntry& entry : gram_index_[f].entries) {
      if (entry.cls < 0 || entry.cls >= k || entry.bucket < 0 || entry.pos < 0) {
        bad_index("gram entry out of range");
      }
      const std::size_t cell =
          f * static_cast<std::size_t>(k) + static_cast<std::size_t>(entry.cls);
      const std::size_t n_buckets = cell_offsets_[cell + 1] - cell_offsets_[cell];
      if (static_cast<std::size_t>(entry.bucket) >= n_buckets) {
        bad_index("gram entry bucket out of range");
      }
      const PreparedBucket& bucket =
          buckets_[cell_offsets_[cell] + static_cast<std::size_t>(entry.bucket)];
      if (static_cast<std::size_t>(entry.pos) >= bucket.recs.size()) {
        bad_index("gram entry position out of range");
      }
    }
  }
}

const std::vector<ssdeep::FuzzyDigest>& TrainIndex::digests(std::size_t f,
                                                            int c) const {
  materialize_raw();
  return digests_.at(f).at(static_cast<std::size_t>(c));
}

std::span<const TrainIndex::PreparedBucket> TrainIndex::prepared(std::size_t f,
                                                                 int c) const {
  if (f >= n_channels()) throw std::out_of_range("TrainIndex::prepared");
  if (c < 0 || c >= n_classes()) throw std::out_of_range("TrainIndex::prepared");
  const std::size_t cell = f * static_cast<std::size_t>(n_classes()) +
                           static_cast<std::size_t>(c);
  return std::span<const PreparedBucket>(buckets_).subspan(
      cell_offsets_[cell], cell_offsets_[cell + 1] - cell_offsets_[cell]);
}

std::span<const std::int32_t> TrainIndex::train_ids(int c) const {
  if (c < 0 || c >= n_classes()) throw std::out_of_range("TrainIndex::train_ids");
  const auto i = static_cast<std::size_t>(c);
  return class_ids_.subspan(class_id_offsets_[i],
                            class_id_offsets_[i + 1] - class_id_offsets_[i]);
}

const TrainIndex::ChannelGramIndex& TrainIndex::gram_index(std::size_t f) const {
  return gram_index_.at(f);
}

std::vector<std::string> TrainIndex::feature_names() const {
  std::vector<std::string> names;
  names.reserve(n_channels() * static_cast<std::size_t>(n_classes()));
  for (const ChannelDesc& channel : channels_) {
    for (const std::string& cls : class_names_) {
      names.push_back(channel.name + ":" + cls);
    }
  }
  return names;
}

PreparedQuery::PreparedQuery(const FeatureHashes& sample, const ChannelMask& mask)
    : channels(sample.channel_count()), channel_masks(sample.channel_count()) {
  for (std::size_t f = 0; f < channels.size(); ++f) {
    if (!mask.enabled(f)) continue;
    channels[f] = ssdeep::PreparedDigest(sample.channel(f));
    channel_masks[f] = ssdeep::DigestMasks(channels[f].text_view());
  }
}

namespace {

void validate_slice(const TrainIndex& index, int class_begin, int class_end,
                    std::span<float> out_row) {
  const int k = index.n_classes();
  if (out_row.size() != index.n_channels() * static_cast<std::size_t>(k)) {
    throw std::invalid_argument("fill_feature_row_slice: bad row width");
  }
  if (class_begin < 0 || class_end > k || class_begin > class_end) {
    throw std::invalid_argument("fill_feature_row_slice: bad class range");
  }
}

/// Digests an all-pairs scan would visit for this (channel, slice):
/// everything in a blocksize-pairable bucket — the denominator of the
/// gate counters.
std::uint64_t pairable_digests(const TrainIndex& index, std::size_t f,
                               std::uint32_t own_blocksize, int class_begin,
                               int class_end) {
  std::uint64_t total = 0;
  for (int c = class_begin; c < class_end; ++c) {
    for (const TrainIndex::PreparedBucket& bucket : index.prepared(f, c)) {
      if (ssdeep::blocksizes_can_pair(own_blocksize, bucket.blocksize)) {
        total += bucket.recs.size();
      }
    }
  }
  return total;
}

/// The fill's scoring queue: part pairs wait in four stack slots, a full
/// ring runs the four-lane kernel, and the scores are applied in
/// candidate order as running maxima into their row columns. The ring
/// crosses class boundaries, since each slot names its own column.
///
/// A candidate counts as scored exactly when its column was below 100
/// at its turn in candidate order (the drain rule of a per-candidate
/// loop). A pair queued behind a pending 100 is computed anyway, but
/// applying it cannot raise the max and, being applied after the 100,
/// does not count. A candidate whose score needs no kernel (the
/// identical-part1 fast path, or no pair at all) first drains the ring,
/// so it too is applied in order, and the counters do not depend on
/// where the ring happens to flush.
class ScoringRing {
 public:
  explicit ScoringRing(ssdeep::EditMetric metric) noexcept : metric_(metric) {}

  /// Scores one candidate into `column`, which holds its class's running
  /// max.
  void add(const ssdeep::PregatedPairs& pairs, float* column) {
    if (pairs.identical || pairs.count == 0) {
      drain();
      apply(column, true, pairs.identical ? 100 : 0);
      return;
    }
    for (std::uint32_t p = 0; p < pairs.count; ++p) {
      const ssdeep::PartPair& pair = pairs.pairs[p];
      lanes_[size_] = {pair.own_masks, pair.own.size(), pair.other};
      slots_[size_] = {column, pair.blocksize, p == 0};
      if (++size_ == lanes_.size()) flush_four();
    }
  }

  /// Scores what is left with the one-lane kernel.
  void drain() {
    for (std::size_t i = 0; i < size_; ++i) {
      const ssdeep::BitParallelLane& lane = lanes_[i];
      const std::size_t dist =
          metric_ == ssdeep::EditMetric::kDamerauOsa
              ? ssdeep::damerau_levenshtein_osa_bitparallel(*lane.masks,
                                                            lane.pattern_len, lane.text)
              : ssdeep::weighted_levenshtein_bitparallel(*lane.masks,
                                                         lane.pattern_len, lane.text);
      apply_lane(i, dist);
    }
    size_ = 0;
  }

  std::uint64_t scored() const noexcept { return scored_; }

 private:
  struct Slot {
    float* column = nullptr;
    std::uint32_t blocksize = 0;
    bool first_pair = false;  // the candidate's first pair carries its count
  };

  void flush_four() {
    const std::array<std::size_t, 4> dist =
        metric_ == ssdeep::EditMetric::kDamerauOsa
            ? ssdeep::damerau_levenshtein_osa_bitparallel(lanes_)
            : ssdeep::weighted_levenshtein_bitparallel(lanes_);
    for (std::size_t i = 0; i < dist.size(); ++i) apply_lane(i, dist[i]);
    size_ = 0;
  }

  void apply_lane(std::size_t i, std::size_t dist) {
    const ssdeep::BitParallelLane& lane = lanes_[i];
    const Slot& slot = slots_[i];
    apply(slot.column, slot.first_pair,
          ssdeep::score_distance(dist, lane.pattern_len, lane.text.size(),
                                 slot.blocksize, metric_));
  }

  void apply(float* column, bool first_pair, int score) {
    if (first_pair && *column < 100.0f) ++scored_;
    *column = std::max(*column, static_cast<float>(score));
  }

  ssdeep::EditMetric metric_;
  ssdeep::FourLanes lanes_{};
  std::array<Slot, 4> slots_{};
  std::size_t size_ = 0;
  std::uint64_t scored_ = 0;
};

}  // namespace

void fill_feature_row(const TrainIndex& index, const FeatureHashes& sample,
                      ssdeep::EditMetric metric, int exclude_id,
                      std::span<float> out_row, const ChannelMask& channels,
                      RowFillStats* stats) {
  // Normalize the query once per channel; the train side was prepared
  // when the index was built.
  const PreparedQuery query(sample, channels);
  fill_feature_row_slice(index, query, metric, exclude_id, 0, index.n_classes(),
                         out_row, channels, stats);
}

QueryCandidates::QueryCandidates(const TrainIndex& index,
                                 const PreparedQuery& query,
                                 const ChannelMask& channels)
    : per_channel_(index.n_channels()) {
  // Probe scratch: reused across channels and calls on this thread —
  // steady-state probes allocate only the retained id vectors.
  thread_local ssdeep::CandidateSet scratch;
  for (std::size_t f = 0; f < index.n_channels(); ++f) {
    if (!channels.enabled(f)) continue;
    const ssdeep::PreparedDigest& own = query.channel(f);
    const TrainIndex::ChannelGramIndex& grams = index.gram_index(f);

    // One probe per pairable blocksize bucket (at most three), matching
    // the part pairing compare_prepared scores at that blocksize
    // relation: part1/part2 against their own kind when equal, crosswise
    // when one side's blocksize doubles the other's. Each probe's hit bit
    // names the query part it used.
    scratch.reset(grams.entries.size());
    for (const TrainIndex::ChannelGramIndex::BlocksizeIndex& bsi :
         grams.by_blocksize) {
      if (!ssdeep::blocksizes_can_pair(own.blocksize(), bsi.blocksize)) continue;
      if (bsi.blocksize == own.blocksize()) {
        bsi.part1.collect(own.part1().grams, scratch, ssdeep::kHitPart1);
        bsi.part2.collect(own.part2().grams, scratch, ssdeep::kHitPart2);
      } else if (own.blocksize() == std::uint64_t{bsi.blocksize} * 2) {
        // The query's part1 lives at the bucket's part2 blocksize.
        bsi.part2.collect(own.part1().grams, scratch, ssdeep::kHitPart1);
      } else {
        bsi.part1.collect(own.part2().grams, scratch, ssdeep::kHitPart2);
      }
    }
    // Entry ids ascend in (class, bucket, pos) order, so sorting groups
    // the candidates by class with classes ascending.
    scratch.sort();
    std::vector<Candidate>& out = per_channel_[f];
    out.reserve(scratch.ids().size());
    for (const std::uint32_t id : scratch.ids()) {
      out.push_back({id, scratch.hit_bits(id)});
    }
  }
}

void fill_feature_row_slice(const TrainIndex& index, const PreparedQuery& query,
                            ssdeep::EditMetric metric, int exclude_id,
                            int class_begin, int class_end,
                            std::span<float> out_row, const ChannelMask& channels,
                            RowFillStats* stats) {
  const QueryCandidates candidates(index, query, channels);
  fill_feature_row_slice(index, query, candidates, metric, exclude_id,
                         class_begin, class_end, out_row, channels, stats);
}

void fill_feature_row_slice(const TrainIndex& index, const PreparedQuery& query,
                            const QueryCandidates& candidates,
                            ssdeep::EditMetric metric, int exclude_id,
                            int class_begin, int class_end,
                            std::span<float> out_row, const ChannelMask& channels,
                            RowFillStats* stats) {
  const int k = index.n_classes();
  validate_slice(index, class_begin, class_end, out_row);
  for (std::size_t f = 0; f < index.n_channels(); ++f) {
    for (int c = class_begin; c < class_end; ++c) {
      out_row[f * static_cast<std::size_t>(k) + static_cast<std::size_t>(c)] = 0.0f;
    }
    if (!channels.enabled(f)) continue;
    const ssdeep::PreparedDigest& own = query.channel(f);
    const ssdeep::PreparedTextView own_text = own.text_view();
    const ssdeep::DigestMasks& own_masks = query.masks(f);
    const TrainIndex::ChannelGramIndex& grams = index.gram_index(f);
    const std::vector<QueryCandidates::Candidate>& hits = candidates.of(f);

    // The list is class-grouped, so the slice's share is one contiguous
    // run — binary-search its start instead of stepping over every
    // candidate of the classes before class_begin.
    auto it = std::partition_point(hits.begin(), hits.end(),
                                   [&](const QueryCandidates::Candidate& hit) {
                                     return grams.entries[hit.id].cls < class_begin;
                                   });
    ScoringRing ring(metric);
    for (; it != hits.end(); ++it) {
      const TrainIndex::GramEntry& entry = grams.entries[it->id];
      const int c = entry.cls;
      if (c >= class_end) break;
      float& column = out_row[f * static_cast<std::size_t>(k) + static_cast<std::size_t>(c)];
      // The column holds the scores applied so far, a prefix of the
      // candidates: at 100 the class cannot improve, so drain it.
      if (column == 100.0f) continue;
      const TrainIndex::PreparedBucket& bucket =
          index.prepared(f, c)[static_cast<std::size_t>(entry.bucket)];
      const auto pos = static_cast<std::size_t>(entry.pos);
      if (exclude_id >= 0 && bucket.ids[pos] == exclude_id) continue;
      // The probe already decided every gate: score from its hit bits.
      ring.add(ssdeep::pregated_pairs(own_text, own_masks, index.view_of(bucket, pos),
                                      it->hit_bits),
               &column);
    }
    ring.drain();
    const std::uint64_t scored = ring.scored();
    if (stats != nullptr) {
      stats->candidates_scored += scored;
      stats->index_skipped +=
          pairable_digests(index, f, own.blocksize(), class_begin, class_end) -
          scored;
    }
  }
}

void fill_feature_row_all_pairs(const TrainIndex& index,
                                const FeatureHashes& sample,
                                ssdeep::EditMetric metric, int exclude_id,
                                std::span<float> out_row,
                                const ChannelMask& channels) {
  const int k = index.n_classes();
  validate_slice(index, 0, k, out_row);
  for (std::size_t f = 0; f < index.n_channels(); ++f) {
    const ssdeep::FuzzyDigest& own = sample.channel(f);
    for (int c = 0; c < k; ++c) {
      int best = 0;
      if (channels.enabled(f)) {
        const std::vector<ssdeep::FuzzyDigest>& digests = index.digests(f, c);
        const std::span<const std::int32_t> ids = index.train_ids(c);
        for (std::size_t j = 0; j < digests.size() && best < 100; ++j) {
          if (exclude_id >= 0 && ids[j] == exclude_id) continue;
          best = std::max(best, ssdeep::compare_digests(own, digests[j], metric));
        }
      }
      out_row[f * static_cast<std::size_t>(k) + static_cast<std::size_t>(c)] =
          static_cast<float>(best);
    }
  }
}

ml::Matrix build_feature_matrix(const TrainIndex& index,
                                const std::vector<FeatureHashes>& samples,
                                ssdeep::EditMetric metric,
                                const std::vector<int>& exclude_ids,
                                const ChannelMask& channels) {
  if (!exclude_ids.empty() && exclude_ids.size() != samples.size()) {
    throw std::invalid_argument("build_feature_matrix: exclude_ids size mismatch");
  }
  ml::Matrix x(samples.size(),
               index.n_channels() * static_cast<std::size_t>(index.n_classes()));
  fhc::util::parallel_for(samples.size(), [&](std::size_t i) {
    const int exclude = exclude_ids.empty() ? -1 : exclude_ids[i];
    fill_feature_row(index, samples[i], metric, exclude, x.row(i), channels);
  });
  return x;
}

}  // namespace fhc::core
