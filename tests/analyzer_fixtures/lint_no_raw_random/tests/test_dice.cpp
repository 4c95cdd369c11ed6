// FIXTURE: tests/ also bans std::random_device and std <random> engines.
#include <cstdlib>
#include <random>

int draw_all() {
  std::random_device device;
  std::mt19937 engine(7);
  std::ranlux48 lux(9);
  return static_cast<int>(device() + engine() + lux()) + rand();
}
