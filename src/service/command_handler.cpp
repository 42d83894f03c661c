#include "service/command_handler.hpp"

#include <chrono>
#include <exception>
#include <sstream>

#include "core/features.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"
#include "util/io_util.hpp"

namespace fhc::service {

namespace {

/// The insert rule for a file just read: its identity did not change
/// during the read, and its ctime is outside the racy window.
bool settled(const util::RegularFile& file) {
  if (file.current_identity() != file.identity()) return false;
  const std::chrono::nanoseconds ctime{file.identity().ctime_ns};
  return std::chrono::system_clock::now().time_since_epoch() - ctime >=
         CommandHandler::kRacyWindow;
}

}  // namespace

CommandHandler::CommandHandler(ClassificationService& svc)
    : svc_(svc), extracted_(svc.config().cache_capacity) {}

core::FeatureHashes CommandHandler::extract_file(const std::string& path) {
  const util::RegularFile file(path);
  const std::size_t capacity = extracted_.capacity();
  if (capacity == 0) return core::extract_feature_hashes(file.read_all());
  const util::FileIdentity& key = file.identity();
  {
    std::lock_guard lock(extract_mutex_);
    if (const core::FeatureHashes* hit = extracted_.get(key)) {
      ++extract_cache_hits_;
      return *hit;
    }
  }
  core::FeatureHashes out = core::extract_feature_hashes(file.read_all());
  if (settled(file)) {
    const std::size_t hash = util::FileIdentityHash{}(key);
    std::lock_guard lock(extract_mutex_);
    if (seen_once_.erase(hash) > 0) {
      extracted_.put(key, out);
    } else {
      if (seen_once_.size() >= capacity) seen_once_.clear();
      seen_once_.insert(hash);
    }
  }
  return out;
}

std::string CommandHandler::extract_path(const std::string& path_spec,
                                         core::FeatureHashes& out) {
  try {
    const runtime::PathSpec spec = runtime::split_path_spec(path_spec);
    out = spec.trace ? runtime::extract_path_spec(spec) : extract_file(spec.exe);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

std::uint64_t CommandHandler::extract_cache_hits() const {
  std::lock_guard lock(extract_mutex_);
  return extract_cache_hits_;
}

std::string CommandHandler::stats_line() const {
  const ServiceStats s = svc_.stats();
  std::ostringstream out;
  out << "requests=" << s.requests << " completed=" << s.completed
      << " batches=" << s.batches << " scored=" << s.scored
      << " cache_hits=" << s.cache_hits << " dedup_hits=" << s.dedup_hits
      << " cache_hit_rate=" << s.cache_hit_rate()
      << " extract_cache_hits=" << extract_cache_hits()
      << " candidates_scored=" << s.candidates_scored
      << " index_skipped=" << s.index_skipped
      << " index_skip_rate=" << s.index_skip_rate() << " reloads=" << s.reloads
      << " unknown_flagged=" << s.unknown_flagged
      << " deadline_expired=" << s.deadline_expired
      << " connections_opened=" << s.connections_opened
      << " connections_active=" << s.connections_active
      << " connections_rejected=" << s.connections_rejected
      << " connections_timed_out=" << s.connections_timed_out
      << " requests_rejected=" << s.requests_rejected
      << " queue_depth=" << s.queue_depth << " p50_ms=" << s.p50_ms
      << " p99_ms=" << s.p99_ms << " max_ms=" << s.max_ms;
  return out.str();
}

CommandHandler::ReloadResult CommandHandler::reload(const std::string& model_path) {
  ReloadResult result;
  try {
    core::FuzzyHashClassifier model = core::FuzzyHashClassifier::load_file(model_path);
    if (unknown_override_) model.set_unknown_threshold(*unknown_override_);
    svc_.reload(std::move(model));
    result.ok = true;
    result.message = model_path;
  } catch (const std::exception& e) {
    result.message = e.what();
  }
  return result;
}

}  // namespace fhc::service
