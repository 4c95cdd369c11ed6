// FIXTURE: bench/ is held to the tests/ rule.
#pragma once

#include <random>

inline unsigned sample() {
  std::default_random_engine engine(3);
  return static_cast<unsigned>(engine());
}
