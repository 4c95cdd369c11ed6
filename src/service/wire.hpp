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
// checks the lists below against it.
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

// Each wire name is defined once, in an X-macro list: LIST(X) expands
// X(Name, value) for every entry, and each use site defines X to build
// what it needs from the same list (the enums here, the name tables in
// wire.cpp, the AdminStats fields and their wire order). Appending an
// enumerator is one list line. Entry comments must be /* */: a // comment
// on a backslash-continued line swallows the next entry.

/// Frame discriminator. Requests have the high bit clear, responses have
/// it set; ErrorResponse may answer any request. Every entry must have a
/// matching "#### <Name>" section in docs/SERVICE.md.
#define QDC_MESSAGE_TYPES(X)                                               \
  X(SubmitRequest, 0x01)   /* enqueue a job (or serve it from cache) */    \
  X(PollRequest, 0x02)     /* query a submitted job's status/result */     \
  X(CancelRequest, 0x03)   /* cancel a still-queued job */                 \
  X(AdminRequest, 0x04)    /* server statistics snapshot */                \
  X(ShutdownRequest, 0x05) /* stop the server (optionally after drain) */  \
  X(SubmitResponse, 0x81)                                                  \
  X(PollResponse, 0x82)                                                    \
  X(CancelResponse, 0x83)                                                  \
  X(AdminResponse, 0x84)                                                   \
  X(ShutdownResponse, 0x85)                                                \
  X(ErrorResponse, 0xFF)

/// Why a request (or a whole frame) was rejected. Stable wire values;
/// never renumber, only append. Every entry must have a row in the Error
/// codes table of docs/SERVICE.md.
#define QDC_ERROR_CODES(X)                                                 \
  X(None, 0)                                                               \
  X(BadMagic, 1)           /* frame does not start with 'QDCS' */          \
  X(UnsupportedVersion, 2) /* frame version != kWireVersion */             \
  X(UnknownMessageType, 3) /* type byte is not a request enumerator */     \
  X(TruncatedFrame, 4)     /* connection closed mid-frame */               \
  X(OversizedFrame, 5)     /* payload length exceeds kMaxPayload */        \
  X(MalformedPayload, 6)   /* payload does not parse as its type */        \
  X(BadJobSpec, 7)         /* spec failed validation (see message text) */ \
  X(QueueFull, 8)          /* bounded job queue rejected the submit */     \
  X(UnknownJob, 9)         /* job id is not (or no longer) registered */   \
  X(NotCancellable, 10)    /* job already running or terminal */           \
  X(Draining, 11)          /* server is shutting down; no new submits */   \
  X(ExecutionFailed, 12)   /* the job itself threw; message has details */

/// Lifecycle of a submitted job (docs/SERVICE.md has the state diagram).
/// Queued and Running are transient; everything >= Done is terminal.
#define QDC_JOB_STATES(X) \
  X(Queued, 1)            \
  X(Running, 2)           \
  X(Done, 3)              \
  X(Cancelled, 4)         \
  X(Expired, 5)           \
  X(Failed, 6)

#define QDC_WIRE_ENUMERATOR(name, value) name = (value),
enum class MessageType : std::uint8_t {
  QDC_MESSAGE_TYPES(QDC_WIRE_ENUMERATOR)
};
enum class ErrorCode : std::uint16_t {
  QDC_ERROR_CODES(QDC_WIRE_ENUMERATOR)
};
enum class JobState : std::uint8_t {
  QDC_JOB_STATES(QDC_WIRE_ENUMERATOR)
};
#undef QDC_WIRE_ENUMERATOR

bool is_terminal(JobState s);

/// SubmitRequest flag bits (docs/SERVICE.md).
inline constexpr std::uint8_t kSubmitFlagWait = 0x01;

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

/// Whether `type` is a request a server must answer: a listed type with
/// the high bit clear.
bool is_request(MessageType type);

/// Stable display names: the list entry's name ("SubmitRequest",
/// "QueueFull", "Queued", ...), "Unknown" for an unlisted value.
const char* message_type_name(MessageType type);
const char* error_code_name(ErrorCode code);
const char* job_state_name(JobState state);

/// One row of a name table generated from a list: an entry's wire value
/// and its display name.
struct WireName {
  unsigned value;
  const char* name;
};

/// The name `table` lists for `value`, or `fallback` when it has none.
template <std::size_t N>
const char* wire_name(const WireName (&table)[N], unsigned value,
                      const char* fallback) {
  for (const WireName& row : table) {
    if (row.value == value) return row.name;
  }
  return fallback;
}

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

/// AdminResponse counters in wire order: a fixed-order block of u64
/// counters. New counters are appended (never reordered); decoders ignore
/// trailing fields they do not know, which is the protocol's forward-compat
/// rule. docs/SERVICE.md lists them in this order.
#define QDC_ADMIN_COUNTERS(X)                                   \
  X(queue_depth)          /* jobs waiting in the queue */       \
  X(queue_capacity)       /* admission bound */                 \
  X(in_flight)            /* jobs currently executing */        \
  X(jobs_submitted)       /* every accepted submit, hits too */ \
  X(jobs_completed)       /* jobs that ran to Done */           \
  X(jobs_cancelled)                                             \
  X(jobs_expired)                                               \
  X(jobs_failed)                                                \
  X(cache_hits)                                                 \
  X(cache_misses)                                               \
  X(cache_evictions)                                            \
  X(cache_bytes)          /* current cached payload bytes */    \
  X(cache_capacity_bytes)                                       \
  X(cache_entries)                                              \
  X(total_wall_us)        /* sum over terminal jobs + hits */   \
  X(total_compute_us)                                           \
  X(max_wall_us)                                                \
  X(max_compute_us)

/// Admin statistics snapshot, one field per QDC_ADMIN_COUNTERS entry.
struct AdminStats {
#define QDC_ADMIN_FIELD(name) std::uint64_t name = 0;
  QDC_ADMIN_COUNTERS(QDC_ADMIN_FIELD)
#undef QDC_ADMIN_FIELD

  std::vector<std::uint8_t> encode() const;
  static AdminStats decode(WireReader& r);
};

/// (name, member) of every admin counter, in wire order: AdminStats's
/// encode/decode and qdc_client's admin printout loop over it.
struct AdminCounter {
  const char* name;
  std::uint64_t AdminStats::*member;
};

inline constexpr AdminCounter kAdminCounters[] = {
#define QDC_ADMIN_ROW(name) {#name, &AdminStats::name},
    QDC_ADMIN_COUNTERS(QDC_ADMIN_ROW)
#undef QDC_ADMIN_ROW
};

}  // namespace qdc::service
