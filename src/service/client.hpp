// Typed client for the experiment service wire protocol.
//
// One ServiceClient owns one connection and speaks the strict
// request/response discipline of docs/SERVICE.md: every call writes one
// request frame and blocks for exactly one response frame. Outcomes are
// returned, not thrown: every *Result carries `error == ErrorCode::None`
// on success, the server's ErrorResponse code otherwise — so expected
// conditions (QueueFull backpressure, UnknownJob, NotCancellable,
// Draining) are plain data the caller branches on. A broken transport
// (server gone mid-call) surfaces as ErrorCode::TruncatedFrame with a
// "connection closed" message.
//
// send_raw()/read_raw() bypass the typed layer so tests (and nothing
// else) can write deliberately malformed frames and observe the server's
// error answers byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/job_spec.hpp"
#include "service/socket_io.hpp"
#include "service/wire.hpp"

namespace qdc::service {

struct SubmitOptions {
  /// Block until the job is terminal and return its full status (the
  /// default). When false, the response carries only {job_id, Queued}
  /// and the caller polls.
  bool wait = true;

  /// Queue-wait deadline in ticks of the server's tick source; 0 = none.
  std::uint64_t timeout_us = 0;
};

struct SubmitResult {
  ErrorCode error = ErrorCode::None;
  std::string error_message;
  JobStatus status;  ///< valid iff error == None
};

struct PollResult {
  ErrorCode error = ErrorCode::None;
  std::string error_message;
  JobStatus status;  ///< valid iff error == None
};

struct CancelResult {
  ErrorCode error = ErrorCode::None;  ///< NotCancellable / UnknownJob here
  std::string error_message;
};

struct AdminResult {
  ErrorCode error = ErrorCode::None;
  std::string error_message;
  AdminStats stats;  ///< valid iff error == None
};

struct ShutdownResult {
  ErrorCode error = ErrorCode::None;
  std::string error_message;
  bool drain = false;  ///< the mode the server acknowledged
};

class ServiceClient {
 public:
  /// Connects immediately; throws ModelError when the server is absent.
  explicit ServiceClient(const std::string& socket_path);

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  SubmitResult submit(const JobSpec& spec, const SubmitOptions& options = {});
  PollResult poll(std::uint64_t job_id);
  CancelResult cancel(std::uint64_t job_id);
  AdminResult admin();
  ShutdownResult shutdown_server(bool drain);

  /// Raw escape hatches for protocol tests: write arbitrary bytes / read
  /// one frame without type checking.
  bool send_raw(const std::vector<std::uint8_t>& bytes);
  ReadFrameResult read_raw();

  bool connected() const { return fd_.valid(); }
  void close() { fd_.reset(); }

 private:
  /// The round trip behind every typed call: writes one `request`, reads
  /// one response and hands an `expected` one to `decode`. Transport
  /// failures, ErrorResponse answers, other response types and decode
  /// errors land in the Result's error fields instead.
  template <typename Result>
  Result call(MessageType request, const std::vector<std::uint8_t>& payload,
              MessageType expected, void (*decode)(WireReader&, Result&));

  Fd fd_;
};

}  // namespace qdc::service
