// FIXTURE: util/expect.{hpp,cpp} implement the macros and may throw.
#include <stdexcept>
#include <string>

namespace qdc::util {

[[noreturn]] void fail(const std::string& what) {
  throw std::logic_error(what);
}

}  // namespace qdc::util
