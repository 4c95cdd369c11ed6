#include "service/wire.hpp"

#include <cstring>

#include "util/expect.hpp"

namespace qdc::service {
namespace {

#define QDC_WIRE_NAME(name, value) {(value), #name},
constexpr WireName kMessageTypeNames[] = {QDC_MESSAGE_TYPES(QDC_WIRE_NAME)};
constexpr WireName kErrorCodeNames[] = {QDC_ERROR_CODES(QDC_WIRE_NAME)};
constexpr WireName kJobStateNames[] = {QDC_JOB_STATES(QDC_WIRE_NAME)};
#undef QDC_WIRE_NAME

bool is_job_state(std::uint8_t value) {
  return wire_name(kJobStateNames, value, nullptr) != nullptr;
}

}  // namespace

bool is_terminal(JobState s) {
  return s == JobState::Done || s == JobState::Cancelled ||
         s == JobState::Expired || s == JobState::Failed;
}

void WireWriter::u8(std::uint8_t v) { out_.push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void WireWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void WireWriter::bytes(const std::uint8_t* data, std::size_t size) {
  out_.insert(out_.end(), data, data + size);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::uint8_t WireReader::u8() {
  QDC_CHECK(remaining() >= 1, "wire payload truncated reading u8");
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  QDC_CHECK(remaining() >= 2, "wire payload truncated reading u16");
  std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[pos_]) |
      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  QDC_CHECK(remaining() >= 4, "wire payload truncated reading u32");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  QDC_CHECK(remaining() >= 8, "wire payload truncated reading u64");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 8;
  return v;
}

std::int64_t WireReader::i64() { return static_cast<std::int64_t>(u64()); }

std::vector<std::uint8_t> WireReader::bytes(std::size_t size) {
  QDC_CHECK(remaining() >= size, "wire payload truncated reading bytes");
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + size);
  pos_ += size;
  return out;
}

std::string WireReader::str() {
  std::uint32_t size = u32();
  QDC_CHECK(remaining() >= size, "wire payload truncated reading string");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return out;
}

std::vector<std::uint8_t> encode_frame(
    MessageType type, const std::vector<std::uint8_t>& payload) {
  QDC_EXPECT(payload.size() <= kMaxPayload,
             "frame payload exceeds kMaxPayload");
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  frame.insert(frame.end(), kMagic, kMagic + 4);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  frame.push_back(0);
  frame.push_back(0);
  auto size = static_cast<std::uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<std::uint8_t>((size >> shift) & 0xFF));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

ErrorCode parse_frame_header(const std::uint8_t* header, FrameHeader* out) {
  if (std::memcmp(header, kMagic, 4) != 0) return ErrorCode::BadMagic;
  if (header[4] != kWireVersion) return ErrorCode::UnsupportedVersion;
  std::uint32_t size = 0;
  for (int i = 11; i >= 8; --i) {
    size = (size << 8) | header[i];
  }
  if (size > kMaxPayload) return ErrorCode::OversizedFrame;
  out->version = header[4];
  out->type = static_cast<MessageType>(header[5]);
  out->payload_size = size;
  return ErrorCode::None;
}

bool is_request(MessageType type) {
  const auto value = static_cast<unsigned>(type);
  return (value & 0x80u) == 0 &&
         wire_name(kMessageTypeNames, value, nullptr) != nullptr;
}

const char* message_type_name(MessageType type) {
  return wire_name(kMessageTypeNames, static_cast<unsigned>(type), "Unknown");
}

const char* error_code_name(ErrorCode code) {
  return wire_name(kErrorCodeNames, static_cast<unsigned>(code), "Unknown");
}

const char* job_state_name(JobState state) {
  return wire_name(kJobStateNames, static_cast<unsigned>(state), "Unknown");
}

std::vector<std::uint8_t> JobStatus::encode() const {
  WireWriter w;
  w.u64(job_id);
  w.u8(static_cast<std::uint8_t>(state));
  w.u8(cached ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(error));
  w.str(error_message);
  w.u64(wall_us);
  w.u64(compute_us);
  w.u32(static_cast<std::uint32_t>(result.size()));
  w.bytes(result.data(), result.size());
  return w.take();
}

JobStatus JobStatus::decode(WireReader& r) {
  JobStatus s;
  s.job_id = r.u64();
  std::uint8_t state = r.u8();
  QDC_CHECK(is_job_state(state), "JobStatus: bad state byte");
  s.state = static_cast<JobState>(state);
  s.cached = r.u8() != 0;
  s.error = static_cast<ErrorCode>(r.u16());
  s.error_message = r.str();
  s.wall_us = r.u64();
  s.compute_us = r.u64();
  std::uint32_t result_size = r.u32();
  s.result = r.bytes(result_size);
  return s;
}

std::vector<std::uint8_t> ErrorBody::encode() const {
  WireWriter w;
  w.u16(static_cast<std::uint16_t>(code));
  w.u16(0);
  w.str(message);
  return w.take();
}

ErrorBody ErrorBody::decode(WireReader& r) {
  ErrorBody e;
  e.code = static_cast<ErrorCode>(r.u16());
  r.u16();  // reserved
  e.message = r.str();
  return e;
}

std::vector<std::uint8_t> AdminStats::encode() const {
  WireWriter w;
  for (const AdminCounter& counter : kAdminCounters) {
    w.u64(this->*counter.member);
  }
  return w.take();
}

AdminStats AdminStats::decode(WireReader& r) {
  AdminStats s;
  for (const AdminCounter& counter : kAdminCounters) {
    s.*counter.member = r.u64();
  }
  // Forward compatibility: a newer server may append counters; ignore
  // anything this decoder does not know about.
  return s;
}

}  // namespace qdc::service
