// FIXTURE: console I/O in library code.
#include <cstdio>
#include <iostream>

namespace qdc::util {

void log_value(int v) {
  std::cout << v << "\n";
  std::fprintf(stderr, "%d\n", v);
  printf("%d\n", v);
}

template <typename Sink>
int log_bare(int v, Sink& sink) {
  using namespace std;
  cout << v;
  sink.cout += v;
  return (&sink)->cout;
}

}  // namespace qdc::util
