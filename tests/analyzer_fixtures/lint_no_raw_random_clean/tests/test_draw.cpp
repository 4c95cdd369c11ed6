// FIXTURE: tests/ draw from a seeded generator type of their own; a
// std::random_device in a comment or "std::mt19937" in a string is fine.
#include <cstdint>

struct SeededRng {
  std::uint64_t state;
  std::uint64_t next() { return state = state * 6364136223846793005u + 1; }
};

const char* engine_name() { return "std::mt19937"; }

std::uint64_t draw_twice() {
  SeededRng rng{42};
  return rng.next() + rng.next();
}
