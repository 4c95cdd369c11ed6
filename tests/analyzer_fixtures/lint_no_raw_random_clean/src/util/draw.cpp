// FIXTURE: seeded engines are fine in src/; so are identifiers that
// merely contain rand (operand, brand) and rand() inside comments.
#include <cstdint>
#include <random>

namespace qdc::util {

int operand(int x) { return x + 1; }
int brand(int x) { return operand(x); }

std::uint64_t draw(std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  return engine();  // not rand()
}

}  // namespace qdc::util
