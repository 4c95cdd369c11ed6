#include "service/client.hpp"

#include <exception>
#include <utility>

#include "util/expect.hpp"

namespace qdc::service {

ServiceClient::ServiceClient(const std::string& socket_path)
    : fd_(connect_unix(socket_path)) {}

template <typename Result>
Result ServiceClient::call(MessageType request,
                           const std::vector<std::uint8_t>& payload,
                           MessageType expected,
                           void (*decode)(WireReader&, Result&)) {
  Result result;
  ReadFrameResult frame;
  if (fd_.valid() && write_frame(fd_, request, payload)) {
    frame = read_frame(fd_);
  }
  if (frame.status != ReadStatus::Ok) {
    fd_.reset();
    result.error = frame.status == ReadStatus::Malformed
                       ? frame.error
                       : ErrorCode::TruncatedFrame;
    result.error_message = "connection closed";
    return result;
  }
  try {
    WireReader r(frame.payload);
    if (frame.header.type == expected) {
      decode(r, result);
    } else if (frame.header.type == MessageType::ErrorResponse) {
      ErrorBody body = ErrorBody::decode(r);
      result.error = body.code;
      result.error_message = std::move(body.message);
    } else {
      // Anything else is a protocol violation by the server.
      result.error = ErrorCode::UnknownMessageType;
      result.error_message = std::string("unexpected response type: ") +
                             message_type_name(frame.header.type);
    }
  } catch (const std::exception& e) {
    result.error = ErrorCode::MalformedPayload;
    result.error_message = e.what();
  }
  return result;
}

SubmitResult ServiceClient::submit(const JobSpec& spec,
                                   const SubmitOptions& options) {
  WireWriter w;
  w.u8(options.wait ? kSubmitFlagWait : 0);
  w.u64(options.timeout_us);
  const std::vector<std::uint8_t> spec_bytes = spec.encode_canonical();
  w.bytes(spec_bytes.data(), spec_bytes.size());
  return call<SubmitResult>(MessageType::SubmitRequest, w.take(),
                            MessageType::SubmitResponse,
                            [](WireReader& r, SubmitResult& out) {
                              out.status = JobStatus::decode(r);
                            });
}

PollResult ServiceClient::poll(std::uint64_t job_id) {
  // Id 0 is the inline cache-hit sentinel; the server never registers it.
  QDC_EXPECT(job_id != 0, "poll: job id 0 is never a registered job");
  WireWriter w;
  w.u64(job_id);
  return call<PollResult>(MessageType::PollRequest, w.take(),
                          MessageType::PollResponse,
                          [](WireReader& r, PollResult& out) {
                            out.status = JobStatus::decode(r);
                          });
}

CancelResult ServiceClient::cancel(std::uint64_t job_id) {
  QDC_EXPECT(job_id != 0, "cancel: job id 0 is never a registered job");
  WireWriter w;
  w.u64(job_id);
  return call<CancelResult>(MessageType::CancelRequest, w.take(),
                            MessageType::CancelResponse,
                            [](WireReader&, CancelResult&) {});
}

AdminResult ServiceClient::admin() {
  return call<AdminResult>(MessageType::AdminRequest, {},
                           MessageType::AdminResponse,
                           [](WireReader& r, AdminResult& out) {
                             out.stats = AdminStats::decode(r);
                           });
}

ShutdownResult ServiceClient::shutdown_server(bool drain) {
  WireWriter w;
  w.u8(drain ? 1 : 0);
  return call<ShutdownResult>(MessageType::ShutdownRequest, w.take(),
                              MessageType::ShutdownResponse,
                              [](WireReader& r, ShutdownResult& out) {
                                out.drain = r.u8() != 0;
                              });
}

bool ServiceClient::send_raw(const std::vector<std::uint8_t>& bytes) {
  if (!fd_.valid()) return false;
  return write_bytes(fd_, bytes.data(), bytes.size());
}

ReadFrameResult ServiceClient::read_raw() { return read_frame(fd_); }

}  // namespace qdc::service
