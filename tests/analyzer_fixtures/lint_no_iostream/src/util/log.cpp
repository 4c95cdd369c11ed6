// FIXTURE: console I/O in library code.
#include <cstdio>
#include <iostream>

namespace qdc::util {

void log_value(int v) {
  std::cout << v << "\n";
  std::fprintf(stderr, "%d\n", v);
  printf("%d\n", v);
}

}  // namespace qdc::util
