// FIXTURE (clean): a block comment that quotes an include line. The
// comment is not a directive, so no include is recorded: no util -> core
// layering edge, no unused include and no include-order complaint.
#include <cstdint>

namespace qdc::util {

/* Callers above util round a bound up first:
#include "core/bounds.hpp"
   and pass next_power_of_two(n) on. */
std::uint64_t next_power_of_two(std::uint64_t n) {
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace qdc::util
