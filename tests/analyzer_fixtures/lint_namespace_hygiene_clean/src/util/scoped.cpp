// FIXTURE: a using-directive inside a function body is not file scope;
// inline namespaces inside qdc count.
#include <string>

namespace qdc::util {

inline namespace v1 {
int version() { return 1; }
}  // namespace v1

std::string scoped() {
  using namespace std::string_literals;
  return "scoped"s;
}

}  // namespace qdc::util
