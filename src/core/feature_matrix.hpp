// Similarity feature matrix: fuzzy hashes -> fixed-width numeric features.
//
// The classifier needs a fixed-dimensional representation of "how similar
// is this sample to what we know". Column (f, c) of the matrix is the
// maximum SSDeep similarity between the sample's channel-f digest and the
// channel-f digests of the *training* samples of known class c:
//
//     x[i, f*K + c] = max_{j in train, y_j = c} sim(h_f(i), h_f(j))
//
// giving n_channels*K columns for K known classes. The channel roster is
// a runtime core::ChannelSet carried by the TrainIndex (default: the
// paper's static triple; the runtime execution-fingerprint channel is the
// first extension). Channel-type importances (Table 5) are recovered by
// summing forest importances over each f-group.
//
// The pairwise comparisons dominate end-to-end runtime, so the builder
// parallelizes over samples, prepares every training digest exactly once
// (PreparedDigest: run-normalized parts + presorted 7-gram arrays), and
// fills rows candidate-driven: each channel's inverted 7-gram index
// (ssdeep::GramIndexView, one per blocksize bucket) is probed with the
// query's own grams, yielding the exact set of training digests that can
// score > 0 — a comparison passes the merge-scan gate only when a 7-gram
// is shared, so every non-candidate is provably score 0 and is never
// touched. The probe also decides the gates of the candidates it
// returns: QueryCandidates keeps each candidate's hit bits (which query
// parts shared a gram with it), PreparedQuery builds the query's
// bit-parallel match masks once per channel, and the fill runs the edit
// distance on the hit part pairs only (ssdeep::pregated_pairs). It
// queues those pairs in a four-slot ring, scores each full ring with
// the four-lane kernel and applies the scores in candidate order, so
// rows and RowFillStats equal a per-candidate loop over
// ssdeep::compare_prepared_pregated. The all-pairs scan over the raw
// training digests (ssdeep::compare_digests on every pair,
// fill_feature_row_all_pairs) is kept as the reference oracle: it reads
// none of the index's pools, and the indexed fill is bit-identical to it.
// The pregated compare equals compare_prepared on every candidate pair
// (property tests in tests/core/test_feature_matrix.cpp).
//
// Storage vs view: everything the row fill reads — normalized part text,
// prepared-digest records, CSR posting lists, entry tables — lives in
// flat pools, and the structures the fill walks (PreparedBucket,
// ChannelGramIndex) are spans into them. The training digests' own gram
// arrays are not kept: the probe answers from the inverted index, and
// pregated scoring reads only part text. The pools are either owned
// vectors, laid out in canonical serialization order by the training
// constructor, or sections of a memory-mapped v3 model container
// (TrainIndex::attach), in which case RELOAD does no digest
// re-preparation and no gram-index rebuild: serialize() dumps the pools
// verbatim and attach() wires spans back over them after structural
// validation. The attached index is bit-identical to a text-load rebuild
// on row fills and gate stats (property tests in
// tests/core/test_serialization.cpp).
//
// Serialization of the channel roster is conditional: a static-triple
// index emits the exact pre-registry bytes (48-byte version-1 Meta, no
// channel-names section), so every old model file attaches unchanged;
// any other ChannelSet emits a version-2 counts header plus a
// channel-names section ("channels" tag).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/features.hpp"
#include "ml/matrix.hpp"
#include "ssdeep/compare.hpp"
#include "ssdeep/gram_index.hpp"
#include "ssdeep/prepared.hpp"

namespace fhc::util {
class SectionedView;
class SectionedWriter;
}  // namespace fhc::util

namespace fhc::core {

/// Section tags of the TrainIndex payload inside a v3 model container
/// (core/classifier.cpp adds "preamble" and "forest" around them;
/// tools/fhc_inspect.cpp pretty-prints the lot).
namespace model_section {
inline constexpr std::string_view kMeta = "tidxmeta";        // counts header
inline constexpr std::string_view kChannels = "channels";    // ChannelSet text
inline constexpr std::string_view kCellBuckets = "cellbkts";  // u32 per (f, c)
inline constexpr std::string_view kBuckets = "buckets";       // BucketMeta each
inline constexpr std::string_view kRecords = "preprecs";      // PreparedRec each
inline constexpr std::string_view kTextPool = "textpool";     // char pool
inline constexpr std::string_view kBucketIds = "bktids";      // i32 per digest
inline constexpr std::string_view kClassIds = "clsids";       // i32 per sample
inline constexpr std::string_view kEntries = "gentries";      // GramEntry each
inline constexpr std::string_view kGramDir = "gramdir";       // GramDirEntry each
inline constexpr std::string_view kGramKeys = "gramkeys";     // u64 CSR keys
inline constexpr std::string_view kGramOffsets = "gramoffs";  // u32 CSR offsets
inline constexpr std::string_view kPostings = "gpost";        // u32 CSR postings
}  // namespace model_section

/// ChannelSet <-> the text stored in the "channels" section and the
/// preamble's channelset block: one "name kind" line per channel.
std::string channel_set_to_text(const ChannelSet& channels);
ChannelSet channel_set_from_text(std::string_view text);

/// The reference index: per known class, per channel, the training
/// digests to compare against.
class TrainIndex {
 public:
  /// One prepared training digest as offsets into the shared text pool:
  /// the normalized text of each of the two parts. Fixed-layout POD —
  /// serialized verbatim as the "preprecs" section.
  struct PreparedRec {
    std::uint64_t t1_off = 0;  // part1 text offset in the char pool
    std::uint64_t t2_off = 0;
    std::uint32_t t1_len = 0;
    std::uint32_t t2_len = 0;
  };
  static_assert(sizeof(PreparedRec) == 24);

  /// Training digests of one (channel, class) cell that share a blocksize.
  /// `ids` holds the original train-sample id of each digest (for
  /// exclude-self lookups), parallel to `recs`. A query skips whole
  /// buckets whose blocksize cannot pair with its own (equal, double, or
  /// half). Spans point into the index's pools (owned or mapped);
  /// view_of() materializes a digest view from a (bucket, pos) address.
  struct PreparedBucket {
    std::uint32_t blocksize = 0;
    std::span<const PreparedRec> recs;
    std::span<const std::int32_t> ids;  // parallel to recs
    std::size_t size() const noexcept { return recs.size(); }
  };

  /// Serialized shape of one bucket ("buckets" section): buckets are
  /// stored cell-major, `count` digests each, so the bucket's recs/ids
  /// are the next `count` entries of their pools.
  struct BucketMeta {
    std::uint32_t blocksize = 0;
    std::uint32_t count = 0;
  };
  static_assert(sizeof(BucketMeta) == 8);

  /// One prepared training digest of a channel, addressed by the gram
  /// index: its class, the blocksize bucket it sits in (index into
  /// prepared(f, cls)), and its position inside that bucket. Entry ids
  /// are assigned in (cls, bucket, pos) order, so a sorted candidate
  /// list is grouped by class, classes ascending.
  struct GramEntry {
    std::int32_t cls = 0;
    std::int32_t bucket = 0;
    std::int32_t pos = 0;
  };
  static_assert(sizeof(GramEntry) == 12);

  /// Serialized shape of one per-blocksize CSR pair ("gramdir" section):
  /// key/offset/posting array lengths, carved cumulatively from the CSR
  /// pools in directory order (part1 then part2; each offsets array has
  /// keys + 1 entries).
  struct GramDirEntry {
    std::uint32_t blocksize = 0;
    std::uint32_t p1_keys = 0;
    std::uint32_t p2_keys = 0;
    std::uint32_t p1_postings = 0;
    std::uint32_t p2_postings = 0;
  };
  static_assert(sizeof(GramDirEntry) == 20);

  /// The legacy fixed-shape counts header — the exact 48-byte "tidxmeta"
  /// section every static-triple model carries (version 1). Non-default
  /// channel sets serialize the version-2 layout instead: the same first
  /// 16 bytes, then u32 n_channels + u32 reserved + per-channel
  /// entry_counts[n] + dir_counts[n]. parse_meta reads either.
  struct Meta {
    std::uint32_t version = 1;
    std::uint32_t n_classes = 0;
    std::uint64_t train_count = 0;
    std::array<std::uint32_t, kFeatureTypeCount> entry_counts{};  // per channel
    std::array<std::uint32_t, kFeatureTypeCount> dir_counts{};    // per channel
    std::uint32_t reserved0 = 0;
    std::uint32_t reserved1 = 0;
  };
  static_assert(sizeof(Meta) == 48);

  /// The parsed counts header, channel-count-agnostic.
  struct MetaInfo {
    std::uint32_t version = 1;  // 1 = static triple, 2 = channel registry
    std::uint32_t n_classes = 0;
    std::uint64_t train_count = 0;
    std::vector<std::uint32_t> entry_counts;  // one per channel
    std::vector<std::uint32_t> dir_counts;    // one per channel
  };

  /// Parses a "tidxmeta" section of either version (48-byte version-1
  /// POD or the version-2 dynamic layout). Throws std::runtime_error on
  /// any shape mismatch. Shared by attach() and tools/fhc_inspect.
  static MetaInfo parse_meta(std::span<const std::byte> bytes);

  /// The inverted 7-gram view of one channel across ALL classes: per
  /// blocksize bucket, a part1 and a part2 CSR index whose postings are
  /// GramEntry ids. A query probes the (at most three) buckets its own
  /// blocksize can pair with — part1 vs part1 and part2 vs part2 at the
  /// equal blocksize, crosswise at double/half (matching the part
  /// pairing compare_prepared scores) — and gets the exact set of
  /// training digests that can score > 0.
  struct ChannelGramIndex {
    struct BlocksizeIndex {
      std::uint32_t blocksize = 0;
      ssdeep::GramIndexView part1;  // postings: entries whose part1 holds the gram
      ssdeep::GramIndexView part2;
    };
    std::span<const GramEntry> entries;
    std::vector<BlocksizeIndex> by_blocksize;
  };

  /// Produces the raw training rows (hashes in original train order plus
  /// their labels) for an attached index — called at most once, only when
  /// digests() or save paths need the raw text. Keeps attach itself
  /// O(metadata).
  using RawDigestLoader =
      std::function<std::pair<std::vector<FeatureHashes>, std::vector<int>>()>;

  /// `labels[i]` in 0..n_classes-1; `class_names.size() == n_classes`.
  /// Prepares every digest of every channel of `channels` and builds the
  /// gram indexes (the owned path). Samples carrying fewer channels than
  /// the set contribute empty digests on the missing ones.
  TrainIndex(const std::vector<FeatureHashes>& train_hashes,
             const std::vector<int>& labels, std::vector<std::string> class_names,
             ChannelSet channels = ChannelSet::static_triple());

  /// Wires a TrainIndex over the sections of a v3 model container without
  /// preparing a single digest or building any index: the pools are used
  /// in place after structural validation (offsets in range, CSR shapes
  /// consistent, entries addressable). `channels` is the roster the model
  /// preamble declared; it is cross-checked against the container's
  /// counts header (and channel-names section, when present). `keepalive`
  /// (e.g. the util::ModelMap the container is a view of) is retained for
  /// the index's lifetime. Throws std::runtime_error on any
  /// inconsistency. Returns by unique_ptr: the index self-references its
  /// pools and holds a std::once_flag, so it is neither copyable nor
  /// movable.
  static std::unique_ptr<TrainIndex> attach(const util::SectionedView& container,
                                            std::vector<std::string> class_names,
                                            ChannelSet channels,
                                            std::size_t train_count,
                                            RawDigestLoader raw_loader,
                                            std::shared_ptr<const void> keepalive);

  /// Adds the index's sections to `writer`. The emitted bytes reference
  /// the live pools (zero-copy), so the writer must be written out while
  /// this index is alive. serialize() of an attach()ed index reproduces
  /// the original sections byte for byte. Static-triple indexes emit the
  /// legacy version-1 counts header and no channel-names section.
  void serialize(util::SectionedWriter& writer) const;

  /// True when this index borrows mapped pools (attach path) rather than
  /// owning them — the construction-path test hook.
  bool attached() const noexcept { return attached_; }

  int n_classes() const noexcept { return static_cast<int>(class_names_.size()); }
  const std::vector<std::string>& class_names() const noexcept { return class_names_; }
  std::size_t train_size() const noexcept { return train_sample_count_; }

  /// The channel roster; position f everywhere below refers to
  /// channels()[f].
  const ChannelSet& channels() const noexcept { return channels_; }
  std::size_t n_channels() const noexcept { return channels_.size(); }

  /// Raw digests of channel `f` for class `c`, parallel to train_ids(c) —
  /// the serialization/inspection view (save() writes these verbatim).
  /// On an attached index the rows are materialized lazily from the
  /// retained preamble on first use.
  const std::vector<ssdeep::FuzzyDigest>& digests(std::size_t f, int c) const;
  const std::vector<ssdeep::FuzzyDigest>& digests(FeatureType f, int c) const {
    return digests(static_cast<std::size_t>(f), c);
  }

  /// Prepared digests of channel `f` for class `c`, bucketed by blocksize —
  /// the comparison view used by fill_feature_row.
  std::span<const PreparedBucket> prepared(std::size_t f, int c) const;
  std::span<const PreparedBucket> prepared(FeatureType f, int c) const {
    return prepared(static_cast<std::size_t>(f), c);
  }

  /// The normalized part text at (bucket, pos) — pure pointer arithmetic
  /// into the text pool, no allocation. What compare_prepared_pregated
  /// reads of a candidate.
  ssdeep::PreparedTextView view_of(const PreparedBucket& bucket,
                                   std::size_t pos) const noexcept {
    const PreparedRec& rec = bucket.recs[pos];
    return {bucket.blocksize,
            std::string_view(text_pool_.data() + rec.t1_off, rec.t1_len),
            std::string_view(text_pool_.data() + rec.t2_off, rec.t2_len)};
  }

  /// Original train-sample ids for class c (for exclude-self lookups).
  std::span<const std::int32_t> train_ids(int c) const;

  /// The inverted 7-gram candidate index of channel `f` — the view the
  /// indexed row fill probes instead of scanning every prepared digest.
  const ChannelGramIndex& gram_index(std::size_t f) const;
  const ChannelGramIndex& gram_index(FeatureType f) const {
    return gram_index(static_cast<std::size_t>(f));
  }

  /// Column labels: "<channel-name>:<Class>" (n_channels*K entries).
  std::vector<std::string> feature_names() const;

 private:
  TrainIndex() = default;

  /// Builds the derived wiring (buckets, channel views, id offsets) from
  /// the pool spans and validates every cross-reference. Shared by the
  /// owned constructor and attach().
  void wire();
  void materialize_raw() const;

  std::vector<std::string> class_names_;
  ChannelSet channels_;
  std::size_t train_sample_count_ = 0;
  bool attached_ = false;
  std::shared_ptr<const void> keepalive_;
  MetaInfo meta_{};

  // Owned storage, laid out in canonical serialization order (empty on
  // the attach path — there the spans below point into the container).
  std::vector<std::uint32_t> cell_bucket_counts_store_;
  std::vector<BucketMeta> bucket_meta_store_;
  std::vector<PreparedRec> recs_store_;
  std::vector<char> text_store_;
  std::vector<std::int32_t> bucket_ids_store_;
  std::vector<std::int32_t> class_ids_store_;
  std::vector<GramEntry> entries_store_;
  std::vector<GramDirEntry> gram_dir_store_;
  std::vector<std::uint64_t> gram_keys_store_;
  std::vector<std::uint32_t> gram_offsets_store_;
  std::vector<std::uint32_t> gram_postings_store_;

  // Pool views — over the owned vectors or the mapped sections.
  std::span<const std::uint32_t> cell_bucket_counts_;
  std::span<const BucketMeta> bucket_meta_;
  std::span<const PreparedRec> recs_;
  std::span<const char> text_pool_;
  std::span<const std::int32_t> bucket_ids_;
  std::span<const std::int32_t> class_ids_;
  std::span<const GramEntry> entries_;
  std::span<const GramDirEntry> gram_dir_;
  std::span<const std::uint64_t> gram_keys_;
  std::span<const std::uint32_t> gram_offsets_;
  std::span<const std::uint32_t> gram_postings_;

  // Derived wiring built by wire().
  std::vector<PreparedBucket> buckets_;        // cell-major, all cells
  std::vector<std::size_t> cell_offsets_;      // n_channels*k + 1 entries
  std::vector<std::size_t> class_id_offsets_;  // k + 1 entries into class_ids_
  std::vector<ChannelGramIndex> gram_index_;   // one per channel

  // Raw digests: eager on the owned path, lazily materialized from
  // `raw_loader_` on the attach path (serialization/inspection only —
  // never touched by row fills).
  RawDigestLoader raw_loader_;
  mutable std::once_flag raw_once_;
  // [feature][class] -> digests in original train order
  mutable std::vector<std::vector<std::vector<ssdeep::FuzzyDigest>>> digests_;
};

/// Which feature channels participate. Default-constructed (or
/// kAllChannels) enables every channel of whatever set it meets; a mask
/// built from explicit flags pins exactly those positions (channels past
/// its end are disabled — "static-only" against a runtime-channel model
/// is ChannelMask{true, true, true}). Disabled channels produce
/// constant-zero columns, which the trees never split on. Used by the
/// feature-ablation bench and the --channels tool flag.
class ChannelMask {
 public:
  constexpr ChannelMask() = default;  // unrestricted: every channel enabled

  constexpr ChannelMask(std::initializer_list<bool> bits) {
    if (bits.size() > kMaxChannels) {
      throw std::invalid_argument("ChannelMask: too many channels");
    }
    for (const bool bit : bits) bits_[count_++] = bit;
  }

  constexpr bool enabled(std::size_t i) const noexcept {
    return count_ == 0 || (i < count_ && bits_[i]);
  }

  /// Pins position i (extending the mask with enabled positions up to it).
  constexpr void set(std::size_t i, bool value) {
    if (i >= kMaxChannels) {
      throw std::invalid_argument("ChannelMask: channel out of range");
    }
    while (count_ <= i) bits_[count_++] = true;
    bits_[i] = value;
  }

  /// 0 = unrestricted; otherwise the number of pinned positions.
  constexpr std::size_t size() const noexcept { return count_; }

  constexpr bool operator==(const ChannelMask& other) const noexcept {
    if (count_ != other.count_) return false;
    for (std::size_t i = 0; i < count_; ++i) {
      if (bits_[i] != other.bits_[i]) return false;
    }
    return true;
  }

 private:
  std::array<bool, kMaxChannels> bits_{};
  std::size_t count_ = 0;
};

inline constexpr ChannelMask kAllChannels{};

/// A query's channels prepared once, so repeated or sliced scoring against
/// the index never re-normalizes the sample side, and never rebuilds its
/// match masks: channel_masks[f] holds both parts' masks of channels[f].
/// Channels disabled by the mask stay default-constructed (they are never
/// compared); channel() and masks() hand out empty values past the
/// sample's own channel count (an empty digest pairs with nothing and
/// scores 0, like a stripped symbols channel).
struct PreparedQuery {
  std::vector<ssdeep::PreparedDigest> channels;
  std::vector<ssdeep::DigestMasks> channel_masks;  // parallel to channels

  PreparedQuery() = default;
  explicit PreparedQuery(const FeatureHashes& sample,
                         const ChannelMask& mask = kAllChannels);

  const ssdeep::PreparedDigest& channel(std::size_t f) const noexcept {
    static const ssdeep::PreparedDigest kEmpty{};
    return f < channels.size() ? channels[f] : kEmpty;
  }
  const ssdeep::DigestMasks& masks(std::size_t f) const noexcept {
    static const ssdeep::DigestMasks kEmpty{};
    return f < channel_masks.size() ? channel_masks[f] : kEmpty;
  }
};

/// One query's candidate sets against one TrainIndex: the per-channel
/// GramIndex probe results (sorted, class-grouped entry ids, each with
/// its hit bits), computed once. Slice fills over any class partition
/// share one probe instead of repeating the identical probe once per
/// slice and channel.
class QueryCandidates {
 public:
  /// One probed training digest: its entry id in
  /// index.gram_index(f).entries and which query parts hit it
  /// (ssdeep::kHitPart1 / kHitPart2, see compare_prepared_pregated).
  struct Candidate {
    std::uint32_t id = 0;
    std::uint32_t hit_bits = 0;
  };

  QueryCandidates() = default;
  QueryCandidates(const TrainIndex& index, const PreparedQuery& query,
                  const ChannelMask& channels = kAllChannels);

  /// Candidates of channel `f` by ascending id (empty for disabled
  /// channels).
  const std::vector<Candidate>& of(std::size_t f) const noexcept {
    return per_channel_[f];
  }

 private:
  std::vector<std::vector<Candidate>> per_channel_;
};

/// What the candidate index saved on one (or more, when accumulated) row
/// fills: of the digests an all-pairs scan would have visited (those in
/// blocksize-pairable buckets of enabled channels within the class
/// range), how many were actually scored versus never touched — pruned
/// by the GramIndex probe, skipped as the excluded self, or cut by a
/// class's score-100 early exit. A candidate counts as scored when its
/// class's running max was below 100 at its turn in candidate order,
/// however the fill batches the kernel calls.
struct RowFillStats {
  std::uint64_t candidates_scored = 0;
  std::uint64_t index_skipped = 0;
};

/// Feature row for one sample. `exclude_id >= 0` skips the training sample
/// with that id (leave-self-out when featurizing training rows). `stats`,
/// when given, accumulates the candidate-index gate counters.
void fill_feature_row(const TrainIndex& index, const FeatureHashes& sample,
                      ssdeep::EditMetric metric, int exclude_id,
                      std::span<float> out_row,
                      const ChannelMask& channels = kAllChannels,
                      RowFillStats* stats = nullptr);

/// Columns (f, c) for every channel f and classes c in
/// [class_begin, class_end) of one feature row, so a query's similarity
/// row can be filled in independent slices. `out_row` is the full-width
/// row; only the slice's columns are written. Covering [0, n_classes) in
/// any partition is bit-identical to fill_feature_row on the same sample.
void fill_feature_row_slice(const TrainIndex& index, const PreparedQuery& query,
                            ssdeep::EditMetric metric, int exclude_id,
                            int class_begin, int class_end,
                            std::span<float> out_row,
                            const ChannelMask& channels = kAllChannels,
                            RowFillStats* stats = nullptr);

/// Slice fill over a precomputed probe: identical output to the overload
/// above, but the GramIndex probe is not repeated — `candidates` must
/// have been built from the same (index, query, channels). perfbench
/// calls it to time the probe (core.probe_ms) apart from the fill.
void fill_feature_row_slice(const TrainIndex& index, const PreparedQuery& query,
                            const QueryCandidates& candidates,
                            ssdeep::EditMetric metric, int exclude_id,
                            int class_begin, int class_end,
                            std::span<float> out_row,
                            const ChannelMask& channels = kAllChannels,
                            RowFillStats* stats = nullptr);

/// The all-pairs scan: the sample's raw digest of each enabled channel
/// against every raw training digest (index.digests(f, c), exclude-self
/// through train_ids(c)) with ssdeep::compare_digests. It reads none of
/// the index's pools. Kept as the property-test oracle and bench
/// baseline for the indexed fill, which must reproduce it bit for bit.
void fill_feature_row_all_pairs(const TrainIndex& index,
                                const FeatureHashes& sample,
                                ssdeep::EditMetric metric, int exclude_id,
                                std::span<float> out_row,
                                const ChannelMask& channels = kAllChannels);

/// Full matrix for `samples` (parallel). `exclude_ids` is either empty or
/// one id per sample (-1 = none).
ml::Matrix build_feature_matrix(const TrainIndex& index,
                                const std::vector<FeatureHashes>& samples,
                                ssdeep::EditMetric metric,
                                const std::vector<int>& exclude_ids = {},
                                const ChannelMask& channels = kAllChannels);

}  // namespace fhc::core
