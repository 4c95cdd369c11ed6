// FIXTURE: the wire header whose enumerators docs/SERVICE.md specifies.
#pragma once

#include <cstdint>

namespace qdc::service {

enum class MessageType : std::uint8_t {
  PingRequest = 0x01,   ///< a comment: Bogus = 9 is not an enumerator
  PingResponse = 0x81,
  ErrorResponse = 0xFF,
};

}  // namespace qdc::service
