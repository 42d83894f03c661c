// CommandHandler's extraction cache and path items.
//
// The load-bearing property: a CLASSIFY_PATH answered from the
// extraction cache is indistinguishable from a fresh extraction. Every
// check compares what the handler returns with serial extraction and
// serial FuzzyHashClassifier::predict on the file's *current* bytes, so
// a stale entry (a key that missed a rewrite) fails the test.
//
// Only files whose ctime is kRacyWindow old are cached, so the suite
// writes its long-lived inputs once, and the tests that need them old
// wait out the window once (ctest runs each test in its own process).
#include "service/command_handler.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"
#include "support/scratch_dir.hpp"
#include "support/synthetic_hashes.hpp"

namespace fhc::service {
namespace {

constexpr const char* kTraceCsv =
    "1.000139894,1234567,,cycles,1000139894,100.00,,\n"
    "1.000139894,654321,,instructions,1000139894,100.00,,\n"
    "2.000231111,1333333,,cycles,1000091217,100.00,,\n"
    "2.000231111,712345,,instructions,1000091217,100.00,,\n";

core::FuzzyHashClassifier make_model() {
  const testsupport::SyntheticHashes data =
      testsupport::make_synthetic_hashes(testsupport::SyntheticHashesParams{});
  core::ClassifierConfig config;
  config.forest.n_estimators = 20;
  config.forest.seed = 11;
  config.confidence_threshold = 0.3;
  core::FuzzyHashClassifier model;
  model.fit(data.train, data.labels, {"A", "B", "C", "D"}, config);
  return model;
}

std::vector<std::string> digests_of(const core::FeatureHashes& sample) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < sample.channel_count(); ++i) {
    out.push_back(sample.channel(i).to_string());
  }
  return out;
}

/// Overwrites `path` in place with `bytes` (same size, same inode), then
/// puts its atime and mtime back: only ctime records the write.
void rewrite_keeping_mtime(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
  const struct timespec times[2] = {before.st_atim, before.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  ASSERT_EQ(after.st_ino, before.st_ino);
  ASSERT_EQ(after.st_size, before.st_size);
  ASSERT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  ASSERT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);
}

/// `bytes` with a stretch in the middle inverted: same size, different
/// file digest.
std::vector<std::uint8_t> mutated(std::vector<std::uint8_t> bytes) {
  for (std::size_t i = bytes.size() / 3; i < bytes.size() / 2; ++i) bytes[i] ^= 0xff;
  return bytes;
}

class ExtractionCache : public ::testing::Test {
 protected:
  // Inputs that outlive the racy window, written once per process.
  static void SetUpTestSuite() {
    model_ = std::make_unique<core::FuzzyHashClassifier>(make_model());
    dir_ = std::make_unique<testsupport::ScratchDir>("extract_cache");
    old_paths_ = testsupport::write_corpus_elfs(*dir_, 8);
    const std::filesystem::path at_dir = dir_->root() / "alice@example.com" / "bin";
    std::filesystem::create_directories(at_dir);
    at_path_ = (at_dir / "app").string();
    std::filesystem::copy_file(old_paths_[0], at_path_);
    trace_path_ = dir_->write("app.trace.csv", std::vector<std::uint8_t>(
                                                   kTraceCsv, kTraceCsv + std::strlen(kTraceCsv)));
    model_path_ = (dir_->root() / "model.fhc").string();
    model_->save_file(model_path_);
    settled_at_ = std::chrono::steady_clock::now() + CommandHandler::kRacyWindow +
                  std::chrono::milliseconds(100);
  }

  /// Blocks until the suite's inputs are old enough to be cached.
  static void wait_out_racy_window() { std::this_thread::sleep_until(settled_at_); }

  static void TearDownTestSuite() {
    dir_.reset();
    model_.reset();
  }

  /// A fresh service + handler over the suite's model.
  struct Daemon {
    ClassificationService svc;
    CommandHandler handler;
    explicit Daemon(std::size_t cache_capacity = ServiceConfig{}.cache_capacity)
        : svc(clone(), [&] {
            ServiceConfig config;
            config.cache_capacity = cache_capacity;
            return config;
          }()),
          handler(svc) {}
  };

  static core::FuzzyHashClassifier clone() {
    std::stringstream buffer;
    model_->save(buffer);
    core::FuzzyHashClassifier copy;
    copy.load(buffer);
    return copy;
  }

  /// One CLASSIFY of `spec` through `handler`: its features must equal
  /// `expected` and its prediction serial predict on them.
  static void expect_current(CommandHandler& handler, const std::string& spec,
                             const core::FeatureHashes& expected) {
    core::FeatureHashes got;
    ASSERT_EQ(handler.extract_path(spec, got), "") << spec;
    EXPECT_EQ(digests_of(got), digests_of(expected)) << spec;
    CommandHandler::Submission submission = handler.submit_path(spec);
    ASSERT_EQ(submission.error, "") << spec;
    const core::Prediction reply = submission.future.get();
    const core::Prediction serial = model_->predict(expected);
    EXPECT_EQ(reply.label, serial.label);
    EXPECT_EQ(reply.is_unknown, serial.is_unknown);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.confidence),
              std::bit_cast<std::uint64_t>(serial.confidence));
  }

  /// expect_current() on the file's current bytes.
  static void expect_current(CommandHandler& handler, const std::string& path) {
    expect_current(handler, path, testsupport::features_of(path));
  }

  static std::unique_ptr<core::FuzzyHashClassifier> model_;
  static std::unique_ptr<testsupport::ScratchDir> dir_;
  static std::vector<std::string> old_paths_;
  static std::string at_path_;
  static std::string trace_path_;
  static std::string model_path_;
  static std::chrono::steady_clock::time_point settled_at_;
};

std::unique_ptr<core::FuzzyHashClassifier> ExtractionCache::model_;
std::unique_ptr<testsupport::ScratchDir> ExtractionCache::dir_;
std::vector<std::string> ExtractionCache::old_paths_;
std::string ExtractionCache::at_path_;
std::string ExtractionCache::trace_path_;
std::string ExtractionCache::model_path_;
std::chrono::steady_clock::time_point ExtractionCache::settled_at_;

TEST_F(ExtractionCache, ThirdExtractionOfAnOldFileHits) {
  wait_out_racy_window();
  Daemon daemon;
  core::FeatureHashes sample;
  // The first extraction only records the key, the second inserts it.
  ASSERT_EQ(daemon.handler.extract_path(old_paths_[0], sample), "");
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 0u);
  ASSERT_EQ(daemon.handler.extract_path(old_paths_[0], sample), "");
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 0u);
  ASSERT_EQ(daemon.handler.extract_path(old_paths_[0], sample), "");
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 1u);
  EXPECT_EQ(digests_of(sample), digests_of(testsupport::features_of(old_paths_[0])));
  EXPECT_NE(daemon.handler.stats_line().find(" extract_cache_hits=1 "), std::string::npos)
      << daemon.handler.stats_line();
  expect_current(daemon.handler, old_paths_[0]);  // extracts twice, both hits
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 3u);
}

TEST_F(ExtractionCache, FreshFileIsNeverCached) {
  Daemon daemon;
  const std::string fresh = dir_->write("fresh", util::read_file(old_paths_[1]));
  for (int i = 0; i < 4; ++i) expect_current(daemon.handler, fresh);
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 0u);
}

TEST_F(ExtractionCache, SameSizeRewriteWithMtimeRestoredReExtracts) {
  wait_out_racy_window();
  Daemon daemon;
  const std::string& path = old_paths_[2];
  const core::FeatureHashes before = testsupport::features_of(path);
  expect_current(daemon.handler, path);
  expect_current(daemon.handler, path);
  ASSERT_GT(daemon.handler.extract_cache_hits(), 0u) << "the file never got cached";
  const std::uint64_t hits = daemon.handler.extract_cache_hits();

  rewrite_keeping_mtime(path, mutated(util::read_file(path)));
  const core::FeatureHashes after = testsupport::features_of(path);
  ASSERT_NE(digests_of(after), digests_of(before));
  expect_current(daemon.handler, path, after);
  EXPECT_EQ(daemon.handler.extract_cache_hits(), hits);
}

TEST_F(ExtractionCache, RenameReplaceReExtracts) {
  wait_out_racy_window();
  Daemon daemon;
  const std::string& path = old_paths_[3];
  const core::FeatureHashes before = testsupport::features_of(path);
  expect_current(daemon.handler, path);
  expect_current(daemon.handler, path);
  ASSERT_GT(daemon.handler.extract_cache_hits(), 0u) << "the file never got cached";
  const std::uint64_t hits = daemon.handler.extract_cache_hits();

  const std::string replacement = dir_->write("replacement", mutated(util::read_file(path)));
  std::filesystem::rename(replacement, path);
  const core::FeatureHashes after = testsupport::features_of(path);
  ASSERT_NE(digests_of(after), digests_of(before));
  expect_current(daemon.handler, path, after);
  EXPECT_EQ(daemon.handler.extract_cache_hits(), hits);
}

TEST_F(ExtractionCache, TraceSpecBypassesTheCache) {
  wait_out_racy_window();
  Daemon daemon;
  const std::string spec = old_paths_[4] + "@" + trace_path_;
  core::FeatureHashes expected = testsupport::features_of(old_paths_[4]);
  runtime::attach_trace(expected, runtime::load_trace_file(trace_path_));
  ASSERT_GT(expected.channel_count(), 3u);
  for (int i = 0; i < 3; ++i) expect_current(daemon.handler, spec, expected);
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 0u);
}

TEST_F(ExtractionCache, ZeroCacheCapacityBypassesTheCache) {
  wait_out_racy_window();
  Daemon daemon(/*cache_capacity=*/0);
  for (int i = 0; i < 3; ++i) expect_current(daemon.handler, old_paths_[5]);
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 0u);
}

TEST_F(ExtractionCache, SurvivesReload) {
  wait_out_racy_window();
  Daemon daemon;
  core::FeatureHashes sample;
  ASSERT_EQ(daemon.handler.extract_path(old_paths_[6], sample), "");
  ASSERT_EQ(daemon.handler.extract_path(old_paths_[6], sample), "");
  std::ostringstream out;
  EXPECT_TRUE(daemon.handler.handle_line("RELOAD " + model_path_, out));
  ASSERT_EQ(out.str(), "OK " + model_path_ + "\n");
  ASSERT_EQ(daemon.svc.stats().reloads, 1u);
  ASSERT_EQ(daemon.handler.extract_path(old_paths_[6], sample), "");
  EXPECT_EQ(daemon.handler.extract_cache_hits(), 1u);
  expect_current(daemon.handler, old_paths_[6]);
}

TEST_F(ExtractionCache, ConcurrentRepeatsAgreeWithSerialExtraction) {
  wait_out_racy_window();
  Daemon daemon;
  const std::vector<std::string> paths(old_paths_.begin(), old_paths_.begin() + 4);
  std::vector<std::vector<std::string>> expected;
  for (const std::string& path : paths) {
    expected.push_back(digests_of(testsupport::features_of(path)));
  }
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < paths.size(); ++i) {
          core::FeatureHashes sample;
          const std::size_t p = (i + static_cast<std::size_t>(t)) % paths.size();
          if (!daemon.handler.extract_path(paths[p], sample).empty() ||
              digests_of(sample) != expected[p]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  EXPECT_GT(daemon.handler.extract_cache_hits(), 0u);
  for (const std::string& path : paths) expect_current(daemon.handler, path);
}

TEST_F(ExtractionCache, PathWithAtSignIsTheExecutable) {
  Daemon daemon;
  // The whole spec names a file: no trace split at its '@'.
  expect_current(daemon.handler, at_path_);
  std::ostringstream out;
  EXPECT_TRUE(daemon.handler.handle_line("CLASSIFY " + at_path_, out));
  EXPECT_EQ(out.str().rfind("ERR", 0), std::string::npos) << out.str();

  // Followed by "@trace" it is still split at the last '@'.
  core::FeatureHashes traced = testsupport::features_of(at_path_);
  runtime::attach_trace(traced, runtime::load_trace_file(trace_path_));
  expect_current(daemon.handler, at_path_ + "@" + trace_path_, traced);
}

}  // namespace
}  // namespace fhc::service
