// service::CommandHandler — the command core of the classification
// daemon, kept apart from the socket server (fhc::net::SocketServer) so
// tests, the chaos harness and the benches can drive it without a
// socket:
//
//   * extract_path(): feature extraction for one CLASSIFY_PATH item
//     (reads the file, an `exe@trace` spec attaches the perf-stat trace),
//     in front of it the extraction cache described below;
//   * stats_line(): the canonical key=value STATS reply;
//   * reload(): model load + service reload with error capture.
//
// The extraction cache. A Slurm prolog sees the same binary job after
// job (array jobs), and re-reading and re-hashing it is most of a repeat
// request: the prediction cache only answers after extraction. So
// extract_path() keeps the FeatureHashes of recently seen files in an
// LRU keyed on the file's util::FileIdentity — (st_dev, st_ino, st_size,
// st_mtim, st_ctim) from fstat on the very descriptor the bytes are read
// from. A repeat costs one open + fstat + lookup and reads no bytes.
// Features do not depend on the model, so the cache survives RELOAD.
//
// An extraction is inserted only when all three hold:
//   * a second fstat after the read returns the same identity, so bytes
//     that changed during the read are never cached;
//   * the file's ctime is at least kRacyWindow older than the wall
//     clock (see the constant);
//   * the identity was extracted once before. The first extraction only
//     records its hash in a doorkeeper set (bounded at the capacity,
//     cleared when full), so a stream of one-off binaries does not fill
//     the cache with entries that never hit. A hash collision only lets
//     a one-off in early; lookups compare whole identities.
// An `exe@trace` item bypasses the cache, and so does a service whose
// cache_capacity is 0 (the extraction cache takes the same capacity).
//
// Threat model. The key notices every write through write(2), truncate,
// chmod or rename-replace: each moves ctime forward, and a file's owner
// cannot set ctime back. A write through a shared mapping (e.g. on tmpfs)
// need not update ctime, so the owner of a file can get a stale label for
// it. That gives them nothing they did not have: they can already swap
// the file between the prolog's read and exec, so the classification
// never vouched for more than "the bytes at read time".
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>

#include "core/classifier.hpp"
#include "service/lru_cache.hpp"
#include "service/service.hpp"
#include "util/io_util.hpp"

namespace fhc::service {

class CommandHandler {
 public:
  /// The extraction cache's capacity is the service's cache_capacity.
  explicit CommandHandler(ClassificationService& svc);

  /// How much older than the wall clock a file's ctime must be before
  /// its features are cached — git's racy-clean rule. A file written
  /// within the same timestamp tick as its read can change again
  /// without its identity changing: filesystems with 1 s timestamps
  /// (Lustre, ext3-style inodes) and coarse kernel clocks both produce
  /// such ticks. Two seconds covers both.
  static constexpr std::chrono::seconds kRacyWindow{2};

  CommandHandler(const CommandHandler&) = delete;
  CommandHandler& operator=(const CommandHandler&) = delete;

  /// Reads `path_spec` (or "exe@trace", split by
  /// runtime::split_path_spec: the trace is fingerprinted into the
  /// runtime channel) and extracts its feature hashes into `out`, or
  /// copies them from the extraction cache. Never throws: returns the
  /// failure text, empty on success. Anything that is not a regular file
  /// (a FIFO, a device) is refused before a byte is read. Safe to call
  /// concurrently; the socket server runs it on the service's pool.
  std::string extract_path(const std::string& path_spec, core::FeatureHashes& out);

  /// Extractions answered from the extraction cache.
  std::uint64_t extract_cache_hits() const;

  /// The canonical one-line key=value STATS reply (no trailing newline):
  /// the service counters plus extract_cache_hits.
  std::string stats_line() const;

  struct ReloadResult {
    bool ok = false;
    std::string message;  // the model path on success, the error otherwise
  };

  /// Loads `model_path` (text/v1/v2 sniffed) and swaps it in. Never
  /// throws; requests already scoring finish on their snapshot either
  /// way. An unknown-threshold override set below is re-applied to the
  /// fresh model, so RELOAD cannot silently drop the deployment knob.
  ReloadResult reload(const std::string& model_path);

  /// Deployment override for the open-set rejection threshold
  /// (fhc_serve --unknown-threshold): applied to every model swapped in
  /// via reload(). The caller applies it to the initially-loaded model.
  void set_unknown_threshold_override(double threshold) {
    unknown_override_ = threshold;
  }

  ClassificationService& service() noexcept { return svc_; }
  const ClassificationService& service() const noexcept { return svc_; }

 private:
  /// The executable's features, through the extraction cache.
  core::FeatureHashes extract_file(const std::string& path);

  ClassificationService& svc_;
  std::optional<double> unknown_override_;

  mutable std::mutex extract_mutex_;  // guards the three members below
  LruMap<util::FileIdentity, core::FeatureHashes, util::FileIdentityHash> extracted_;
  std::unordered_set<std::size_t> seen_once_;  // doorkeeper: FileIdentityHash values
  std::uint64_t extract_cache_hits_ = 0;
};

}  // namespace fhc::service
