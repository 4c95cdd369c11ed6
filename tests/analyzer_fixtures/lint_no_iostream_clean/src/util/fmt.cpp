// FIXTURE: formatting into a caller's stream or buffer is not console
// I/O; std::cout in a comment and printf( in a string are not either, and
// neither is declaring a member, or using a parameter or a local, that is
// merely named like a stream.
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace qdc::util {

void write_value(std::ostream& os, std::int64_t v) { os << v; }

const char* hint() { return "call printf(...) in a bench instead"; }

struct ProbeSink {
  int cout = 0;
};

int probe_total(const std::ostream* cerr) { return cerr != nullptr ? 1 : 0; }

int probe_next() {
  int clog = 2;
  return clog + 1;
}

std::size_t digits(std::int64_t v) {
  std::size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

}  // namespace qdc::util
