// Length-prefixed binary wire protocol of the experiment service.
//
// Every message on a service connection is one *frame*:
//
//   offset  size  field
//   0       4     magic  'Q' 'D' 'C' 'S'
//   4       1     protocol version (kWireVersion)
//   5       1     message type (MessageType)
//   6       2     reserved, must be 0
//   8       4     payload length in bytes, little-endian (<= kMaxPayload)
//   12      N     payload
//
// All multi-byte integers, here and in every payload, are little-endian.
// The protocol is strictly request/response: a client sends one request
// frame and reads exactly one response frame before sending the next.
// docs/SERVICE.md is the normative spec (frame layout, payload of every
// message type, error codes, versioning rules); this header and that
// document must change together — qdc_analyze's lint/doc-drift rule
// fails when a MessageType enumerator has no SERVICE.md section.
//
// Decoding is defensive: readers never trust a length field. WireReader
// throws ModelError (via QDC_CHECK) on truncation; the server catches it
// and answers ErrorResponse{MalformedPayload} instead of crashing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qdc::service {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 12;
inline constexpr std::uint32_t kMaxPayload = 16u * 1024u * 1024u;
inline constexpr std::uint8_t kMagic[4] = {'Q', 'D', 'C', 'S'};

/// Frame discriminator. Requests have the high bit clear, responses have
/// it set; ErrorResponse may answer any request. Every enumerator here
/// must have a matching "#### <Name>" section in docs/SERVICE.md.
enum class MessageType : std::uint8_t {
  SubmitRequest = 0x01,    ///< enqueue a job (or serve it from cache)
  PollRequest = 0x02,      ///< query a submitted job's status/result
  CancelRequest = 0x03,    ///< cancel a still-queued job
  AdminRequest = 0x04,     ///< server statistics snapshot
  ShutdownRequest = 0x05,  ///< stop the server (optionally after drain)
  SubmitResponse = 0x81,
  PollResponse = 0x82,
  CancelResponse = 0x83,
  AdminResponse = 0x84,
  ShutdownResponse = 0x85,
  ErrorResponse = 0xFF,
};

/// Why a request (or a whole frame) was rejected. Stable wire values;
/// never renumber, only append.
enum class ErrorCode : std::uint16_t {
  None = 0,
  BadMagic = 1,            ///< frame does not start with 'QDCS'
  UnsupportedVersion = 2,  ///< frame version != kWireVersion
  UnknownMessageType = 3,  ///< type byte is not a request enumerator
  TruncatedFrame = 4,      ///< connection closed mid-frame
  OversizedFrame = 5,      ///< payload length exceeds kMaxPayload
  MalformedPayload = 6,    ///< payload does not parse as its type
  BadJobSpec = 7,          ///< spec failed validation (see message text)
  QueueFull = 8,           ///< bounded job queue rejected the submit
  UnknownJob = 9,          ///< job id is not (or no longer) registered
  NotCancellable = 10,     ///< job already running or terminal
  Draining = 11,           ///< server is shutting down; no new submits
  ExecutionFailed = 12,    ///< the job itself threw; message has details
};

/// Lifecycle of a submitted job (docs/SERVICE.md has the state diagram).
/// Queued and Running are transient; everything >= Done is terminal.
enum class JobState : std::uint8_t {
  Queued = 1,
  Running = 2,
  Done = 3,
  Cancelled = 4,
  Expired = 5,
  Failed = 6,
};

bool is_terminal(JobState s);

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void bytes(const std::uint8_t* data, std::size_t size);
  void str(const std::string& s);  ///< u32 length + raw bytes

  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Little-endian payload cursor. Every read checks the remaining length
/// and throws ModelError on truncation; callers translate that into
/// ErrorCode::MalformedPayload.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  std::vector<std::uint8_t> bytes(std::size_t size);
  std::string str();  ///< u32 length + raw bytes

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// A parsed frame header.
struct FrameHeader {
  std::uint8_t version = 0;
  MessageType type = MessageType::ErrorResponse;
  std::uint32_t payload_size = 0;
};

/// Serializes header + payload into one contiguous frame.
std::vector<std::uint8_t> encode_frame(MessageType type,
                                       const std::vector<std::uint8_t>& payload);

/// Parses the 12-byte header. Returns ErrorCode::None and fills `out` on
/// success; otherwise names the first violated rule (magic, version,
/// size). The type byte is NOT validated here — a response-decoder knows
/// which types it expects.
ErrorCode parse_frame_header(const std::uint8_t* header, FrameHeader* out);

/// Whether `type` is a request a server must answer.
bool is_request(MessageType type);

/// Stable display name of a message type ("SubmitRequest", ...).
const char* message_type_name(MessageType type);

/// Stable display name of an error code ("QueueFull", ...).
const char* error_code_name(ErrorCode code);

/// Stable display name of a job state ("Queued", ...).
const char* job_state_name(JobState state);

// ---------------------------------------------------------------------
// Typed payloads. Each struct has encode() -> payload bytes and a static
// decode(reader) that throws ModelError (via QDC_CHECK) on malformed
// input. docs/SERVICE.md lists the field layouts normatively.

/// Status block shared by SubmitResponse and PollResponse.
struct JobStatus {
  std::uint64_t job_id = 0;
  JobState state = JobState::Queued;
  bool cached = false;           ///< result came from the result cache
  ErrorCode error = ErrorCode::None;  ///< set when state == Failed
  std::string error_message;     ///< empty unless state == Failed
  std::uint64_t wall_us = 0;     ///< submit -> terminal (0 without a clock)
  std::uint64_t compute_us = 0;  ///< executor time (0 for cache hits)
  std::vector<std::uint8_t> result;  ///< present iff state == Done

  std::vector<std::uint8_t> encode() const;
  static JobStatus decode(WireReader& r);
};

struct ErrorBody {
  ErrorCode code = ErrorCode::None;
  std::string message;

  std::vector<std::uint8_t> encode() const;
  static ErrorBody decode(WireReader& r);
};

/// Admin statistics snapshot: a fixed-order block of u64 counters. New
/// counters are appended (never reordered); decoders ignore trailing
/// fields they do not know, which is the protocol's forward-compat rule.
struct AdminStats {
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_expired = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_capacity_bytes = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t total_wall_us = 0;
  std::uint64_t total_compute_us = 0;
  std::uint64_t max_wall_us = 0;
  std::uint64_t max_compute_us = 0;

  std::vector<std::uint8_t> encode() const;
  static AdminStats decode(WireReader& r);
};

}  // namespace qdc::service
