// The closed-loop load generator: `connections` client threads, each
// keeping `depth` requests in flight and sending the next one only when a
// reply comes back, until the deadline passes. Every reply is kept for
// the oracle and the latency percentiles.
//
// With tracing on, each request also records the client-side codec time
// (encode, frame extraction, decode) and a span per step; spans of one
// request share its sequence number.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What LoadPlan::next returns when the workload has no more inputs.
inline constexpr std::size_t kNoInput = std::numeric_limits<std::size_t>::max();

/// One answered request.
struct Reply {
  std::uint32_t input = 0;          // index into the workload's inputs
  std::uint8_t op = 0;              // net::Opcode of the reply
  bool unknown = false;
  std::int32_t label = 0;
  std::uint64_t confidence_bits = 0;
  std::uint64_t server_micros = 0;
  double latency_ms = 0.0;          // client send -> reply decoded
  double codec_us = 0.0;            // traced runs only
  Clock::time_point done;           // when the reply was decoded
};

/// A span recorded by a traced run: `request` ties the spans of one
/// request together (the in-process layer pass numbers its own).
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  Clock::time_point start;
  Clock::time_point end;
};

struct LoadPlan {
  std::string socket_path;
  std::size_t connections = 1;
  std::size_t depth = 1;
  Clock::time_point deadline;
  bool trace = false;
  /// The input a connection sends as its k-th request, or kNoInput when
  /// the workload has no more inputs. Called from the connection threads.
  std::function<std::size_t(std::size_t connection, std::size_t k)> next;
  /// Appends the request frame for `input` to `out`.
  std::function<void(std::string& out, std::size_t input)> encode;
};

struct LoadResult {
  std::vector<Reply> replies;
  std::vector<Span> spans;       // traced runs only
  std::size_t sent = 0;
  /// When the first connection ran out of inputs (max() if none did).
  Clock::time_point exhausted_at = Clock::time_point::max();
  std::string failure;           // transport/protocol failure, if any
};

LoadResult run_closed_loop(const LoadPlan& plan);

}  // namespace perfbench
