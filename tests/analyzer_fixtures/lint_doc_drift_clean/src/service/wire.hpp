// FIXTURE: the wire lists whose entries docs/SERVICE.md specifies.
#pragma once

#include <cstdint>

namespace qdc::service {

#define QDC_MESSAGE_TYPES(X)                                         \
  X(PingRequest, 0x01) /* a comment: X(Bogus, 9) is not an entry */ \
  X(PingResponse, 0x81)                                            \
  X(ErrorResponse, 0xFF)

#define QDC_ERROR_CODES(X) \
  X(None, 0)               \
  X(Busy, 1)

#define QDC_ADMIN_COUNTERS(X) \
  X(pings)                    \
  X(errors)                   \
  X(bytes)

#define QDC_WIRE_ENUMERATOR(name, value) name = (value),
enum class MessageType : std::uint8_t {
  QDC_MESSAGE_TYPES(QDC_WIRE_ENUMERATOR)
};
#undef QDC_WIRE_ENUMERATOR

}  // namespace qdc::service
