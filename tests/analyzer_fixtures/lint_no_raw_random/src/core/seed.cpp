// FIXTURE: std::random_device in src/ is reported once, by
// determinism/wall-clock; lint/no-raw-random leaves it alone there.
#include <random>

namespace qdc::core {

unsigned fresh_seed() {
  std::random_device device;
  return device();
}

}  // namespace qdc::core
