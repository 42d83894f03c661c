// fhc::net wire protocol — length-prefixed binary frames, the one
// protocol of the classification daemon.
//
// It is framed so clients can pipeline (many requests in flight on one
// connection; the daemon answers strictly in request order) and binary
// so digest payloads need no escaping. A prolog client (fhc_classify
// SOCKET FILE) sends one CLASSIFY_PATH at a time; fhc_loadgen and rack
// collectors pipeline.
//
// Byte layout (all integers little-endian, no alignment padding):
//
//   frame    := u32 payload_len | payload[payload_len]
//   payload  := u8 opcode | body
//
// payload_len counts the opcode byte, so it is always >= 1; frames whose
// declared length exceeds the configured maximum (default 1 MiB) are a
// protocol violation and the connection is closed. Strings are
// u32-length-prefixed byte runs. f64 is the IEEE-754 bit pattern as a
// little-endian u64.
//
// Requests:
//   0x01 CLASSIFY_DIGESTS  u8 count_flags | [u32 deadline_ms] | n x string
//        Pre-hashed channel digests in model channel order (position 0 =
//        ssdeep-file, ...). Empty strings are allowed and score 0, like
//        a stripped binary's symbols channel. The daemon never touches
//        the filesystem for these — clients hash locally, the daemon
//        scores. Malformed digest text answers ERROR (connection stays).
//        count_flags: low nibble = n (1..8); bit 7 set = a u32
//        deadline_ms follows (the request's time budget from decode —
//        work not started by then answers DEADLINE_EXCEEDED); bits 4..6
//        reserved, must be zero (kMalformed otherwise). Pre-deadline
//        encoders emit a bare count <= 8, so old frames decode
//        unchanged.
//   0x02 CLASSIFY_PATH     string path | [u32 deadline_ms]
//        Server-side extraction of "exe" or "exe@trace" (split by
//        runtime::split_path_spec; the daemon reads the file, so a
//        relative path resolves from its working directory). A trailing
//        u32, when present, is the deadline as above (any other
//        trailing length stays kMalformed).
//   0x03 STATS             (empty)
//   0x04 RELOAD            string model_path
//   0x05 PING              (empty)
//   0x06 QUIT              (empty) — graceful daemon shutdown: replies
//        OK, stops accepting, drains every connection's in-flight
//        replies, then exits.
//
// Responses:
//   0x81 PREDICTION  i32 label | u8 flags | f64 confidence |
//                    u64 server_micros | string class_name
//        label -1 = unknown (class_name empty); flags bit0 set = the
//        prediction was rejected as unknown (open-set rejection / below
//        the confidence threshold — always set when label is -1), other
//        bits reserved (must be zero); server_micros is the per-request
//        wall time from frame decode to completion.
//   0x82 OK          string text        (RELOAD/PING/QUIT acknowledgements)
//   0x83 STATS_TEXT  string text        (the key=value stats line)
//   0x84 ERROR       string message     (per-request failure)
//   0x85 BUSY        string reason      (admission control: over
//        max_connections / max_pipeline / max_inflight / service queue —
//        an explicit reject instead of unbounded queueing; back off and
//        retry)
//   0x86 DEADLINE_EXCEEDED string reason (the request's deadline or the
//        server's max_queue_delay passed before scoring started; the
//        sample was never scored. Unlike BUSY this is not a capacity
//        signal — retrying with the same budget will likely expire
//        again.)
//
// Framing violations (oversize or zero-length frames, truncated bodies,
// trailing bytes after a body) answer ERROR and close the connection;
// an unknown opcode in an otherwise well-formed frame answers ERROR and
// keeps it open.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fhc::net {

inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;  // 1 MiB payload cap
inline constexpr std::size_t kFrameHeaderSize = 4;         // u32 payload_len
inline constexpr std::size_t kMaxDigestChannels = 8;       // mirrors core::kMaxChannels

enum class Opcode : std::uint8_t {
  kClassifyDigests = 0x01,
  kClassifyPath = 0x02,
  kStats = 0x03,
  kReload = 0x04,
  kPing = 0x05,
  kQuit = 0x06,

  kPrediction = 0x81,
  kOk = 0x82,
  kStatsText = 0x83,
  kError = 0x84,
  kBusy = 0x85,
  kDeadlineExceeded = 0x86,
};

/// One decoded request. `digests` is set for kClassifyDigests, `text`
/// for kClassifyPath (the path spec) and kReload (the model path).
struct Request {
  Opcode op = Opcode::kPing;
  std::vector<std::string> digests;
  std::string text;
  // CLASSIFY deadline (optional wire field): time budget in milliseconds
  // from frame decode. has_deadline distinguishes "0ms" (expire at once)
  // from "no deadline".
  std::uint32_t deadline_ms = 0;
  bool has_deadline = false;
};

/// One decoded response. `text` carries the OK/STATS/ERROR/BUSY string
/// or the prediction's class name.
struct Response {
  Opcode op = Opcode::kOk;
  std::int32_t label = 0;
  bool is_unknown = false;  // PREDICTION flags bit0
  double confidence = 0.0;
  std::uint64_t server_micros = 0;
  std::string text;
};

/// PREDICTION flags bits (u8 after the label; others reserved as zero).
inline constexpr std::uint8_t kPredictionFlagUnknown = 0x01;

/// CLASSIFY_DIGESTS count_flags bits: low nibble is the channel count,
/// bit 7 announces the deadline field, bits 4..6 are reserved-as-zero.
inline constexpr std::uint8_t kClassifyCountMask = 0x0f;
inline constexpr std::uint8_t kClassifyFlagDeadline = 0x80;
inline constexpr std::uint8_t kClassifyReservedMask = 0x70;

// ---- encoding ------------------------------------------------------------
// Each encoder appends one complete frame (header + payload) to `out`.
// The optional `deadline_ms` emits the CLASSIFY deadline field.

void encode_classify_digests(std::string& out, std::span<const std::string> digests,
                             std::optional<std::uint32_t> deadline_ms = std::nullopt);
void encode_classify_path(std::string& out, std::string_view path_spec,
                          std::optional<std::uint32_t> deadline_ms = std::nullopt);
void encode_stats(std::string& out);
void encode_reload(std::string& out, std::string_view model_path);
void encode_ping(std::string& out);
void encode_quit(std::string& out);

void encode_prediction(std::string& out, std::int32_t label, bool is_unknown,
                       double confidence, std::uint64_t server_micros,
                       std::string_view class_name);
void encode_ok(std::string& out, std::string_view text);
void encode_stats_text(std::string& out, std::string_view text);
void encode_error(std::string& out, std::string_view message);
void encode_busy(std::string& out, std::string_view reason);
void encode_deadline_exceeded(std::string& out, std::string_view reason);

// ---- decoding ------------------------------------------------------------

enum class DecodeStatus {
  kOk,
  kUnknownOpcode,  // framing intact: reply ERROR, keep the connection
  kMalformed,      // truncated/trailing/overlong body: reply ERROR + close
};

/// Decodes one frame payload (opcode + body) into `out`. Never throws.
DecodeStatus decode_request(std::span<const std::uint8_t> payload, Request& out);
DecodeStatus decode_response(std::span<const std::uint8_t> payload, Response& out);

/// Incremental frame extractor over a byte stream — feed() arbitrary
/// chunks (torn reads are the normal case), then drain next() until it
/// returns nothing. A frame whose declared payload length is 0 or
/// exceeds max_frame poisons the reader (error() != nullopt): the stream
/// can no longer be trusted and the connection must close.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {}

  void feed(std::span<const std::uint8_t> bytes);
  void feed(std::string_view bytes);

  /// The next complete frame payload (opcode + body), or nullopt when
  /// more bytes are needed or the reader is poisoned.
  std::optional<std::vector<std::uint8_t>> next();

  /// Non-empty once a framing violation was seen; the reader stays
  /// poisoned and next() returns nothing from then on.
  const std::optional<std::string>& error() const noexcept { return error_; }

  /// Bytes buffered but not yet returned (diagnostics/backpressure).
  std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  std::size_t max_frame_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix already handed out via next()
  std::optional<std::string> error_;
};

}  // namespace fhc::net
