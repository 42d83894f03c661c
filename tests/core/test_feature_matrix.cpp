// Similarity feature matrix: layout, exclude-self, channel masks, and the
// GramIndex bit-identity property — the candidate-driven fill must
// reproduce the all-pairs reference scan bit for bit.
#include "core/feature_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus.hpp"
#include "ssdeep/digest.hpp"
#include "ssdeep/prepared.hpp"
#include "support/corpus_digests.hpp"
#include "util/rng.hpp"

namespace fhc::core {
namespace {

struct SmallData {
  std::vector<FeatureHashes> hashes;
  std::vector<int> labels;
  std::vector<std::string> names;
};

SmallData make_small_data() {
  // Three classes, all samples hashed.
  auto specs = corpus::scaled_app_classes(0.02);
  std::vector<corpus::AppClassSpec> keep;
  for (const auto& spec : specs) {
    if (spec.name == "Velvet" || spec.name == "HMMER" || spec.name == "BLAT") {
      keep.push_back(spec);
    }
  }
  corpus::Corpus corpus(keep, 42);
  SmallData data;
  for (int c = 0; c < corpus.class_count(); ++c) {
    data.names.push_back(corpus.specs()[static_cast<std::size_t>(c)].name);
  }
  for (const auto& ref : corpus.samples()) {
    data.hashes.push_back(extract_feature_hashes(corpus.sample_bytes(ref)));
    data.labels.push_back(ref.class_idx);
  }
  return data;
}

const SmallData& small_data() {
  static const SmallData data = make_small_data();
  return data;
}

TEST(TrainIndex, OrganizesDigestsByClassAndChannel) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  EXPECT_EQ(index.n_classes(), 3);
  EXPECT_EQ(index.train_size(), data.hashes.size());

  std::size_t total = 0;
  for (int c = 0; c < 3; ++c) {
    const auto& digests = index.digests(FeatureType::kSymbols, c);
    EXPECT_EQ(digests.size(), index.train_ids(c).size());
    total += digests.size();
  }
  EXPECT_EQ(total, data.hashes.size());
}

TEST(TrainIndex, FeatureNamesCoverChannelsTimesClasses) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const auto names = index.feature_names();
  ASSERT_EQ(names.size(), 9u);  // 3 channels x 3 classes
  EXPECT_EQ(names[0], "ssdeep-file:" + data.names[0]);
  EXPECT_EQ(names[3], "ssdeep-strings:" + data.names[0]);
  EXPECT_EQ(names[6], "ssdeep-symbols:" + data.names[0]);
}

TEST(TrainIndex, RejectsBadLabels) {
  const auto& data = small_data();
  auto bad_labels = data.labels;
  bad_labels[0] = 99;
  EXPECT_THROW(TrainIndex(data.hashes, bad_labels, data.names),
               std::invalid_argument);
}

TEST(FeatureMatrix, OwnClassColumnDominates) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const ml::Matrix x = build_feature_matrix(index, data.hashes,
                                            ssdeep::EditMetric::kDamerauOsa);
  ASSERT_EQ(x.rows(), data.hashes.size());
  ASSERT_EQ(x.cols(), 9u);
  const int k = 3;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int own = data.labels[i];
    // Without exclude-self the own-class symbols column must be 100.
    EXPECT_EQ(x.at(i, static_cast<std::size_t>(2 * k + own)), 100.0f);
  }
}

TEST(FeatureMatrix, ExcludeSelfRemovesThePerfectMatch) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  std::vector<int> exclude(data.hashes.size());
  for (std::size_t i = 0; i < exclude.size(); ++i) exclude[i] = static_cast<int>(i);
  const ml::Matrix with_self = build_feature_matrix(index, data.hashes,
                                                    ssdeep::EditMetric::kDamerauOsa);
  const ml::Matrix without_self = build_feature_matrix(
      index, data.hashes, ssdeep::EditMetric::kDamerauOsa, exclude);
  const int k = 3;
  bool any_lower = false;
  for (std::size_t i = 0; i < with_self.rows(); ++i) {
    const auto own = static_cast<std::size_t>(2 * k + data.labels[i]);
    EXPECT_LE(without_self.at(i, own), with_self.at(i, own));
    any_lower |= without_self.at(i, own) < with_self.at(i, own);
  }
  EXPECT_TRUE(any_lower) << "exclude-self must change at least some rows";
}

TEST(FeatureMatrix, ChannelMaskZeroesDisabledGroups) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const ChannelMask symbols_only{false, false, true};
  const ml::Matrix x = build_feature_matrix(index, data.hashes,
                                            ssdeep::EditMetric::kDamerauOsa, {},
                                            symbols_only);
  const int k = 3;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(2 * k); ++c) {
      EXPECT_EQ(x.at(i, c), 0.0f);  // file+strings groups zeroed
    }
  }
  // Symbols group still informative.
  float max_sym = 0.0f;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = static_cast<std::size_t>(2 * k); c < x.cols(); ++c) {
      max_sym = std::max(max_sym, x.at(i, c));
    }
  }
  EXPECT_GT(max_sym, 0.0f);
}

TEST(FeatureMatrix, ValuesAreBoundedScores) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const ml::Matrix x = build_feature_matrix(index, data.hashes,
                                            ssdeep::EditMetric::kDamerauOsa);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      EXPECT_GE(x.at(i, c), 0.0f);
      EXPECT_LE(x.at(i, c), 100.0f);
    }
  }
}

TEST(FeatureMatrix, RejectsMismatchedExcludeIds) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  EXPECT_THROW(build_feature_matrix(index, data.hashes,
                                    ssdeep::EditMetric::kDamerauOsa, {1, 2}),
               std::invalid_argument);
}

TEST(FeatureMatrix, SlicesComposeToFullRow) {
  // Slice fills over any partition of [0, K) must reproduce
  // fill_feature_row bit-for-bit.
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const int k = index.n_classes();
  const auto width = static_cast<std::size_t>(kFeatureTypeCount * k);
  for (std::size_t i = 0; i < data.hashes.size(); i += 5) {
    std::vector<float> full(width);
    fill_feature_row(index, data.hashes[i], ssdeep::EditMetric::kDamerauOsa,
                     /*exclude_id=*/-1, full);
    const PreparedQuery query(data.hashes[i]);
    for (int shards = 1; shards <= k + 1; ++shards) {
      std::vector<float> sliced(width, -1.0f);
      for (int s = 0; s < shards; ++s) {
        fill_feature_row_slice(index, query, ssdeep::EditMetric::kDamerauOsa,
                               /*exclude_id=*/-1, s * k / shards,
                               (s + 1) * k / shards, sliced);
      }
      EXPECT_EQ(full, sliced) << "shards=" << shards << " sample=" << i;
    }
  }
}

// --- GramIndex candidate-driven fill vs. the all-pairs oracle ----------

/// One FeatureHashes whose three channels all carry `digest` (digest-level
/// adversarial cases don't need distinct channels).
FeatureHashes uniform_hashes(const std::string& digest_text) {
  const auto digest = ssdeep::parse_digest(digest_text);
  EXPECT_TRUE(digest.has_value()) << digest_text;
  FeatureHashes hashes;
  hashes.file = *digest;
  hashes.strings = *digest;
  hashes.symbols = *digest;
  return hashes;
}

/// Asserts the indexed fill equals the all-pairs reference for `sample`
/// under every combination that matters: both metrics, the given exclude
/// id, and every slice partition of the class range.
void expect_indexed_matches_all_pairs(const TrainIndex& index,
                                      const FeatureHashes& sample,
                                      int exclude_id,
                                      const ChannelMask& channels = kAllChannels) {
  const int k = index.n_classes();
  const auto width = static_cast<std::size_t>(kFeatureTypeCount * k);
  for (const auto metric : {ssdeep::EditMetric::kDamerauOsa,
                            ssdeep::EditMetric::kWeightedLevenshtein}) {
    std::vector<float> reference(width);
    fill_feature_row_all_pairs(index, sample, metric, exclude_id, reference,
                               channels);
    std::vector<float> indexed(width);
    fill_feature_row(index, sample, metric, exclude_id, indexed, channels);
    ASSERT_EQ(reference, indexed) << "full row, metric "
                                  << static_cast<int>(metric);

    const PreparedQuery query(sample, channels);
    const QueryCandidates candidates(index, query, channels);
    for (int shards = 1; shards <= std::min(k, 3) + 1; ++shards) {
      std::vector<float> sliced(width, -1.0f);
      std::vector<float> shared(width, -1.0f);
      for (int s = 0; s < shards; ++s) {
        fill_feature_row_slice(index, query, metric, exclude_id,
                               s * k / shards, (s + 1) * k / shards, sliced,
                               channels);
        // The service path: one probe shared across every slice.
        fill_feature_row_slice(index, query, candidates, metric, exclude_id,
                               s * k / shards, (s + 1) * k / shards, shared,
                               channels);
      }
      // Disabled channels' columns are written by every partition member;
      // enabled ones by exactly one. Either way the composed row must be
      // the reference row.
      ASSERT_EQ(reference, sliced) << "shards=" << shards;
      ASSERT_EQ(reference, shared) << "shards=" << shards;
    }
  }
}

TEST(GramIndexFill, MatchesAllPairsOnRealCorpus) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  for (std::size_t i = 0; i < data.hashes.size(); i += 3) {
    expect_indexed_matches_all_pairs(index, data.hashes[i], /*exclude_id=*/-1);
    expect_indexed_matches_all_pairs(index, data.hashes[i],
                                     static_cast<int>(i));  // leave-self-out
  }
}

TEST(GramIndexFill, MatchesAllPairsWithDisabledChannels) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const ChannelMask masks[] = {{false, false, true},
                               {true, false, false},
                               {false, false, false}};
  for (const auto& mask : masks) {
    expect_indexed_matches_all_pairs(index, data.hashes[1], -1, mask);
  }
}

/// A hand-built corpus hitting the index's edge cases: parts shorter
/// than the 7-char window (empty gram arrays on both the train and the
/// query side), single-bucket single-sample classes, duplicate digests
/// (score-100 early exit), blocksize-double/half pairings where the
/// crosswise part probe is the only correct one, and an overlong part1
/// (> kSpamsumLength, constructible only by hand — parse_digest caps
/// lengths) that packs no grams and must score 0 even against itself.
struct AdversarialSet {
  std::vector<FeatureHashes> train;
  std::vector<int> labels;
  std::vector<std::string> names;
  std::vector<FeatureHashes> queries;
};

AdversarialSet adversarial_set() {
  std::string overlong_part;
  for (std::size_t i = 0; i <= ssdeep::kSpamsumLength; ++i) {
    overlong_part.push_back(static_cast<char>('A' + (i * 11) % 26));
  }
  FeatureHashes overlong;
  overlong.file = overlong.strings = overlong.symbols =
      ssdeep::FuzzyDigest{6, overlong_part, ""};
  AdversarialSet set;
  set.train = {
      uniform_hashes("3:abc:xy"),                              // short parts
      uniform_hashes("3:abc:xy"),                              // duplicate
      uniform_hashes("6:ABCDEFGHIJKLMNOP:QRSTUVWXYZabcdef"),   // normal, bs 6
      uniform_hashes("12:QRSTUVWXYZabcdef:ABCDEFGHIJKLMNOP"),  // bs 12, crosswise
      uniform_hashes("24:zzzzyyyyxxxxwwww:vvvvuuuuttttssss"),  // unpairable island
      overlong,
  };
  set.labels = {0, 0, 1, 1, 2, 2};
  set.names = {"short", "normal", "far"};
  set.queries = {
      uniform_hashes("3:abc:xy"),                             // short query
      uniform_hashes("3:ab:c"),                               // even shorter
      uniform_hashes("6:ABCDEFGHIJKLMNOP:QRSTUVWXYZabcdef"),  // exact dup of id 2
      uniform_hashes("6:ZYXWVUTSRQPONMLK:QRSTUVWXYZabcdef"),  // part2 matches bs-12 part1
      uniform_hashes("12:QRSTUVWXYZabcdef:ponmlkjihgfedcba"), // part1 matches bs-6 part2
      uniform_hashes("48:vvvvuuuuttttssss:zzzzyyyyxxxxwwww"), // pairs only with bs 24
      uniform_hashes("96:GGGGHHHHIIIIJJJJ:KKKKLLLLMMMMNNNN"), // pairs with nothing
      overlong,                                               // self-match must stay 0
  };
  return set;
}

TEST(GramIndexFill, AdversarialShortPartsAndMixedBlocksizes) {
  const AdversarialSet set = adversarial_set();
  TrainIndex index(set.train, set.labels, set.names);
  for (std::size_t q = 0; q < set.queries.size(); ++q) {
    for (const int exclude : {-1, 0, 2, 3, 5}) {
      expect_indexed_matches_all_pairs(index, set.queries[q], exclude);
    }
  }
}

// --- the probe is the gate: pregated scoring vs compare_prepared --------

/// Which hit-bit shapes a set of candidate pairs covered, and how many
/// of them scored > 0 (a clear bit that should have been set only shows
/// on a pair whose score is not 0).
struct PregatedCoverage {
  std::size_t pairs = 0;
  std::size_t scored_part1_only = 0;  // equal blocksize, bit 0 alone
  std::size_t scored_part2_only = 0;  // equal blocksize, bit 1 alone
  std::size_t scored_both = 0;
  std::size_t scored_crosswise = 0;   // double/half blocksize
};

/// The raw training digest a gram-index entry was prepared from:
/// digests(f, c) is parallel to train_ids(c).
const ssdeep::FuzzyDigest& raw_training_digest(const TrainIndex& index,
                                               std::size_t f,
                                               const TrainIndex::GramEntry& entry) {
  const TrainIndex::PreparedBucket& bucket =
      index.prepared(f, entry.cls)[static_cast<std::size_t>(entry.bucket)];
  const std::int32_t id = bucket.ids[static_cast<std::size_t>(entry.pos)];
  const std::span<const std::int32_t> ids = index.train_ids(entry.cls);
  const auto at = std::find(ids.begin(), ids.end(), id) - ids.begin();
  return index.digests(f, entry.cls)[static_cast<std::size_t>(at)];
}

/// compare_prepared_pregated, fed each candidate's hit bits, the query's
/// prebuilt masks and the index's stored part text, must equal
/// compare_prepared on the candidate prepared afresh from its raw digest,
/// on every (query, candidate) pair the probe returns, on every channel,
/// for both metrics.
void expect_pregated_matches_compare_prepared(const TrainIndex& index,
                                              const FeatureHashes& sample,
                                              PregatedCoverage& coverage) {
  const PreparedQuery query(sample);
  const QueryCandidates candidates(index, query);
  for (std::size_t f = 0; f < index.n_channels(); ++f) {
    const ssdeep::PreparedDigest& own = query.channel(f);
    const TrainIndex::ChannelGramIndex& grams = index.gram_index(f);
    for (const QueryCandidates::Candidate& hit : candidates.of(f)) {
      ASSERT_NE(hit.hit_bits, 0u);
      const TrainIndex::GramEntry& entry = grams.entries[hit.id];
      const TrainIndex::PreparedBucket& bucket =
          index.prepared(f, entry.cls)[static_cast<std::size_t>(entry.bucket)];
      const ssdeep::PreparedTextView stored =
          index.view_of(bucket, static_cast<std::size_t>(entry.pos));
      const ssdeep::PreparedDigest other(raw_training_digest(index, f, entry));
      ASSERT_EQ(stored.blocksize, other.blocksize());
      ASSERT_EQ(stored.part1, other.part1().text);
      ASSERT_EQ(stored.part2, other.part2().text);
      int best = 0;
      for (const auto metric : {ssdeep::EditMetric::kDamerauOsa,
                                ssdeep::EditMetric::kWeightedLevenshtein}) {
        const int expected = ssdeep::compare_prepared(own, other, metric);
        ASSERT_EQ(ssdeep::compare_prepared_pregated(own.text_view(), query.masks(f),
                                                    stored, hit.hit_bits, metric),
                  expected)
            << "channel " << f << ", entry " << hit.id << ", bits "
            << hit.hit_bits << ", metric " << static_cast<int>(metric)
            << ", bs " << own.blocksize() << " vs " << other.blocksize();
        best = std::max(best, expected);
      }
      ++coverage.pairs;
      if (best == 0) continue;
      if (own.blocksize() != other.blocksize()) {
        ++coverage.scored_crosswise;
      } else if (hit.hit_bits == ssdeep::kHitPart1) {
        ++coverage.scored_part1_only;
      } else if (hit.hit_bits == ssdeep::kHitPart2) {
        ++coverage.scored_part2_only;
      } else {
        ++coverage.scored_both;
      }
    }
  }
}

TEST(GramIndexFill, PregatedMatchesComparePreparedOnRealCorpus) {
  // The application corpus, then fuzzy hashes of random inputs with
  // mutated twins and ~2x grown copies: the second set is where
  // adjacent-blocksize (crosswise) pairs and part2-only matches occur.
  PregatedCoverage coverage;
  const auto& data = small_data();
  const TrainIndex index(data.hashes, data.labels, data.names);
  for (const FeatureHashes& sample : data.hashes) {
    expect_pregated_matches_compare_prepared(index, sample, coverage);
  }
  std::vector<FeatureHashes> grown;
  std::vector<int> labels;
  for (const ssdeep::FuzzyDigest& digest : testsupport::make_corpus_digests()) {
    grown.push_back(uniform_hashes(digest.to_string()));
    labels.push_back(static_cast<int>(labels.size() % 3));
  }
  const TrainIndex grown_index(grown, labels, {"a", "b", "c"});
  for (const FeatureHashes& sample : grown) {
    expect_pregated_matches_compare_prepared(grown_index, sample, coverage);
  }
  // Real digests rarely lose part1 while keeping part2 at one blocksize;
  // the adversarial set below covers that shape.
  EXPECT_GT(coverage.scored_part1_only, 0u);
  EXPECT_GT(coverage.scored_both, 0u);
  EXPECT_GT(coverage.scored_crosswise, 0u);
}

TEST(GramIndexFill, PregatedMatchesComparePreparedOnAdversarialDigests) {
  const AdversarialSet set = adversarial_set();
  TrainIndex index(set.train, set.labels, set.names);
  PregatedCoverage coverage;
  for (const FeatureHashes& query : set.queries) {
    expect_pregated_matches_compare_prepared(index, query, coverage);
  }
  for (const FeatureHashes& sample : set.train) {
    expect_pregated_matches_compare_prepared(index, sample, coverage);
  }
  EXPECT_GT(coverage.scored_part2_only, 0u);
  EXPECT_GT(coverage.scored_both, 0u);
  EXPECT_GT(coverage.scored_crosswise, 0u);
}

TEST(GramIndexFill, PregatedFastPathAtTheWindowEdge) {
  // Identical part1 of 7 chars shares its single gram but is not the
  // == 100 fast path (that needs more than the window); at bs 3 the
  // small-blocksize cap holds it to 7. At 8 chars the fast path answers
  // 100, where the edit distance would be capped to 8.
  TrainIndex index({uniform_hashes("3:ABCDEFG:xy"), uniform_hashes("3:ABCDEFGH:xy")},
                   {0, 1}, {"seven", "eight"});
  PregatedCoverage coverage;
  for (const char* text : {"3:ABCDEFG:xy", "3:ABCDEFGH:xy"}) {
    expect_pregated_matches_compare_prepared(index, uniform_hashes(text), coverage);
    expect_indexed_matches_all_pairs(index, uniform_hashes(text), -1);
  }
  // The 7-char part1 is a prefix of the 8-char one: each query finds both.
  EXPECT_EQ(coverage.pairs, 4u * kFeatureTypeCount);

  const ssdeep::PreparedDigest seven(*ssdeep::parse_digest("3:ABCDEFG:xy"));
  const ssdeep::PreparedDigest eight(*ssdeep::parse_digest("3:ABCDEFGH:xy"));
  const ssdeep::DigestMasks seven_masks(seven.text_view());
  const ssdeep::DigestMasks eight_masks(eight.text_view());
  EXPECT_EQ(ssdeep::compare_prepared(seven, seven), 7);
  EXPECT_EQ(ssdeep::compare_prepared_pregated(seven.text_view(), seven_masks,
                                              seven.text_view(), ssdeep::kHitPart1),
            7);
  EXPECT_EQ(ssdeep::compare_prepared(eight, eight), 100);
  EXPECT_EQ(ssdeep::compare_prepared_pregated(eight.text_view(), eight_masks,
                                              eight.text_view(), ssdeep::kHitPart1),
            100);
}

TEST(GramIndexFill, TrainIndexExposesChannelGramIndexes) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  for (int f = 0; f < kFeatureTypeCount; ++f) {
    const auto& channel = index.gram_index(static_cast<FeatureType>(f));
    // Every training digest of the channel is an entry exactly once.
    EXPECT_EQ(channel.entries.size(), data.hashes.size());
    ASSERT_FALSE(channel.by_blocksize.empty());
    for (const auto& bsi : channel.by_blocksize) {
      // Every bucketed view must cover at least one posting across its two
      // part channels — an all-empty blocksize bucket would never be built.
      EXPECT_GT(bsi.part1.posting_count() + bsi.part2.posting_count(), 0u);
    }
    // Entry ids ascend in class order — the grouping invariant the
    // candidate walk relies on.
    for (std::size_t e = 1; e < channel.entries.size(); ++e) {
      EXPECT_LE(channel.entries[e - 1].cls, channel.entries[e].cls);
    }
  }
}

TEST(GramIndexFill, GateStatsPartitionAcrossSlices) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const int k = index.n_classes();
  const auto width = static_cast<std::size_t>(kFeatureTypeCount * k);
  const auto metric = ssdeep::EditMetric::kDamerauOsa;

  std::vector<float> row(width);
  RowFillStats full;
  fill_feature_row(index, data.hashes[0], metric, -1, row, kAllChannels, &full);
  // The corpus has same-class relatives (scored) and the index must prune
  // at least something for the counters to mean anything.
  EXPECT_GT(full.candidates_scored, 0u);

  // Any slice partition must report the same totals as the full fill —
  // the accounting identity the service relies on when it sums per-slice
  // stats into its batch counters.
  const PreparedQuery query(data.hashes[0]);
  for (const int shards : {2, 3}) {
    RowFillStats sum;
    std::vector<float> sliced(width);
    for (int s = 0; s < shards; ++s) {
      fill_feature_row_slice(index, query, metric, -1, s * k / shards,
                             (s + 1) * k / shards, sliced, kAllChannels, &sum);
    }
    EXPECT_EQ(sum.candidates_scored, full.candidates_scored) << shards;
    EXPECT_EQ(sum.index_skipped, full.index_skipped) << shards;
  }

  // scored + skipped covers exactly the digests an all-pairs scan would
  // visit: those in blocksize-pairable buckets, over all three channels.
  std::uint64_t pairable = 0;
  for (int f = 0; f < kFeatureTypeCount; ++f) {
    const auto type = static_cast<FeatureType>(f);
    const auto bs = query.channels[static_cast<std::size_t>(f)].blocksize();
    for (int c = 0; c < k; ++c) {
      for (const auto& bucket : index.prepared(type, c)) {
        if (ssdeep::blocksizes_can_pair(bs, bucket.blocksize)) {
          pairable += bucket.size();
        }
      }
    }
  }
  EXPECT_EQ(full.candidates_scored + full.index_skipped, pairable);
}

// --- four-lane fill vs per-candidate scoring -----------------------------

/// The fill as a per-candidate loop over compare_prepared_pregated: each
/// class's candidates in order, skipped once the class's running max is
/// 100 or when the candidate is the excluded self, every other candidate
/// scored and counted. The four-lane fill must reproduce its row and
/// both counters.
struct PerCandidateFill {
  std::vector<float> row;
  RowFillStats stats;
};

PerCandidateFill per_candidate_fill(const TrainIndex& index, const FeatureHashes& sample,
                                    ssdeep::EditMetric metric, int exclude_id) {
  const int k = index.n_classes();
  PerCandidateFill out;
  out.row.assign(index.n_channels() * static_cast<std::size_t>(k), 0.0f);
  const PreparedQuery query(sample);
  const QueryCandidates candidates(index, query);
  for (std::size_t f = 0; f < index.n_channels(); ++f) {
    const ssdeep::PreparedDigest& own = query.channel(f);
    const TrainIndex::ChannelGramIndex& grams = index.gram_index(f);
    std::vector<int> best(static_cast<std::size_t>(k), 0);
    std::uint64_t scored = 0;
    for (const QueryCandidates::Candidate& hit : candidates.of(f)) {
      const TrainIndex::GramEntry& entry = grams.entries[hit.id];
      int& class_best = best[static_cast<std::size_t>(entry.cls)];
      if (class_best == 100) continue;
      const TrainIndex::PreparedBucket& bucket =
          index.prepared(f, entry.cls)[static_cast<std::size_t>(entry.bucket)];
      const auto pos = static_cast<std::size_t>(entry.pos);
      if (exclude_id >= 0 && bucket.ids[pos] == exclude_id) continue;
      class_best = std::max(class_best, ssdeep::compare_prepared_pregated(
                                            own.text_view(), query.masks(f),
                                            index.view_of(bucket, pos), hit.hit_bits,
                                            metric));
      ++scored;
    }
    std::uint64_t pairable = 0;
    for (int c = 0; c < k; ++c) {
      out.row[f * static_cast<std::size_t>(k) + static_cast<std::size_t>(c)] =
          static_cast<float>(best[static_cast<std::size_t>(c)]);
      for (const TrainIndex::PreparedBucket& bucket : index.prepared(f, c)) {
        if (ssdeep::blocksizes_can_pair(own.blocksize(), bucket.blocksize)) {
          pairable += bucket.size();
        }
      }
    }
    out.stats.candidates_scored += scored;
    out.stats.index_skipped += pairable - scored;
  }
  return out;
}

/// Digest text over the base64 alphabet with no two neighbours equal, so
/// run normalization leaves it alone.
std::string random_part(util::Rng& rng, std::size_t len) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  while (out.size() < len) {
    const char c = kAlphabet[rng.next_below(64)];
    if (out.empty() || out.back() != c) out.push_back(c);
  }
  return out;
}

/// `part` after `edits` random substitutions, adjacent swaps, deletions
/// and insertions: related text that keeps a shared 7-gram for the few
/// edits used here.
std::string mutate_part(util::Rng& rng, std::string part, std::size_t edits) {
  for (; edits > 0; --edits) {
    const std::size_t i = rng.next_below(part.size() - 1);
    const char c = random_part(rng, 1)[0];
    switch (rng.next_below(4)) {
      case 0: part[i] = c; break;
      case 1: std::swap(part[i], part[i + 1]); break;
      case 2: part.erase(i, 1); break;
      default: part.insert(i, 1, c); break;
    }
  }
  return part;
}

TEST(GramIndexFill, FourLaneFillMatchesPerCandidateScoring) {
  // Nine classes whose groups hold 1-9 candidates of one query, each
  // scored on one or two part pairs, so the four-slot ring flushes
  // inside groups, across group boundaries and between the two pairs of
  // one candidate. Among them: candidates whose part2 equals the
  // query's while part1 differs (a 100 from the kernel, on the second
  // pair, that must drain the rest of its class), a pair of 7-char
  // identical part1s (no fast path), crosswise pairs at double and half
  // blocksize, and, with every training digest as a query, the
  // identical-part1 fast path and exclude-self hits.
  util::Rng rng(29);
  const std::string q1 = random_part(rng, 28);
  const std::string q2 = random_part(rng, 24);
  const FeatureHashes query_a = uniform_hashes("48:" + q1 + ":" + q2);
  const std::size_t group_sizes[] = {3, 1, 9, 2, 7, 4, 5, 8, 6};
  std::vector<FeatureHashes> train;
  std::vector<int> labels;
  std::vector<std::string> names;
  std::size_t kernel_hundreds = 0;
  for (int c = 0; c < 9; ++c) {
    names.push_back("class" + std::to_string(c));
    const std::size_t n = group_sizes[c];
    for (std::size_t j = 0; j < n; ++j) {
      std::string digest;
      const bool part2_twin = (c == 2 && j == 3) || (c == 5 && j == 0) ||
                              (c == 7 && j == 7) || (c == 4 && j == 6);
      if (part2_twin) {
        digest = "48:" + mutate_part(rng, q1, 4) + ":" + q2;
        ++kernel_hundreds;
      } else if (c == 6 && j < 2) {
        digest = "48:ABCDEFG:" + mutate_part(rng, q2, 2);
      } else {
        switch ((static_cast<std::size_t>(c) + j) % 4) {
          case 0:
            digest = "48:" + mutate_part(rng, q1, 1 + j % 3) + ":" +
                     mutate_part(rng, q2, 2);
            break;
          case 1:
            digest = "48:" + random_part(rng, 28) + ":" + mutate_part(rng, q2, j % 3);
            break;
          case 2:
            digest = "24:" + random_part(rng, 35) + ":" + mutate_part(rng, q1, 2);
            break;
          default:
            digest = "96:" + mutate_part(rng, q2, 2) + ":" + random_part(rng, 20);
            break;
        }
      }
      train.push_back(uniform_hashes(digest));
      labels.push_back(c);
    }
  }
  const TrainIndex index(train, labels, names);
  const int k = index.n_classes();
  const auto width = static_cast<std::size_t>(kFeatureTypeCount * k);

  // Every candidate of query A is related: all 45 are probe hits. Every
  // 100 among them comes from the kernel, not the fast path, and the
  // part2 twins are the ones that score it on their second pair.
  {
    const PreparedQuery query(query_a);
    const QueryCandidates candidates(index, query);
    ASSERT_EQ(candidates.of(0).size(), train.size());
    std::size_t hundreds = 0;
    for (const QueryCandidates::Candidate& hit : candidates.of(0)) {
      const TrainIndex::GramEntry& entry = index.gram_index(0).entries[hit.id];
      const TrainIndex::PreparedBucket& bucket =
          index.prepared(0, entry.cls)[static_cast<std::size_t>(entry.bucket)];
      const ssdeep::PreparedTextView other =
          index.view_of(bucket, static_cast<std::size_t>(entry.pos));
      const ssdeep::PregatedPairs pairs = ssdeep::pregated_pairs(
          query.channel(0).text_view(), query.masks(0), other, hit.hit_bits);
      if (ssdeep::compare_prepared_pregated(query.channel(0).text_view(), query.masks(0),
                                            other, hit.hit_bits) == 100) {
        EXPECT_FALSE(pairs.identical);
        if (pairs.count == 2) ++hundreds;
      }
    }
    EXPECT_EQ(hundreds, kernel_hundreds);
  }

  std::vector<std::pair<FeatureHashes, int>> queries = {{query_a, -1}, {query_a, 4}};
  for (std::size_t i = 0; i < train.size(); ++i) {
    queries.emplace_back(train[i], -1);
    queries.emplace_back(train[i], static_cast<int>(i));
  }
  for (const auto metric : {ssdeep::EditMetric::kDamerauOsa,
                            ssdeep::EditMetric::kWeightedLevenshtein}) {
    for (const auto& [sample, exclude_id] : queries) {
      const PerCandidateFill reference = per_candidate_fill(index, sample, metric,
                                                            exclude_id);
      std::vector<float> row(width);
      RowFillStats stats;
      fill_feature_row(index, sample, metric, exclude_id, row, kAllChannels, &stats);
      ASSERT_EQ(row, reference.row) << "full row, exclude " << exclude_id;
      ASSERT_EQ(stats.candidates_scored, reference.stats.candidates_scored);
      ASSERT_EQ(stats.index_skipped, reference.stats.index_skipped);

      // Every partition of the class range into contiguous slices: bit b
      // of `cuts` starts a new slice at class b + 1.
      const PreparedQuery query(sample);
      const QueryCandidates candidates(index, query);
      for (unsigned cuts = 0; cuts < (1u << (k - 1)); ++cuts) {
        std::vector<float> sliced(width, -1.0f);
        RowFillStats sum;
        int begin = 0;
        for (int end = 1; end <= k; ++end) {
          if (end < k && (cuts & (1u << (end - 1))) == 0) continue;
          fill_feature_row_slice(index, query, candidates, metric, exclude_id, begin,
                                 end, sliced, kAllChannels, &sum);
          begin = end;
        }
        ASSERT_EQ(sliced, reference.row) << "cuts " << cuts;
        ASSERT_EQ(sum.candidates_scored, reference.stats.candidates_scored)
            << "cuts " << cuts;
        ASSERT_EQ(sum.index_skipped, reference.stats.index_skipped) << "cuts " << cuts;
      }
    }
  }
}

TEST(FeatureMatrix, SliceRejectsBadRanges) {
  const auto& data = small_data();
  TrainIndex index(data.hashes, data.labels, data.names);
  const int k = index.n_classes();
  const PreparedQuery query(data.hashes[0]);
  std::vector<float> row(static_cast<std::size_t>(kFeatureTypeCount * k));
  const auto metric = ssdeep::EditMetric::kDamerauOsa;
  EXPECT_THROW(fill_feature_row_slice(index, query, metric, -1, -1, k, row),
               std::invalid_argument);
  EXPECT_THROW(fill_feature_row_slice(index, query, metric, -1, 0, k + 1, row),
               std::invalid_argument);
  EXPECT_THROW(fill_feature_row_slice(index, query, metric, -1, 2, 1, row),
               std::invalid_argument);
  std::vector<float> narrow(row.size() - 1);
  EXPECT_THROW(fill_feature_row_slice(index, query, metric, -1, 0, k, narrow),
               std::invalid_argument);
}

}  // namespace
}  // namespace fhc::core
