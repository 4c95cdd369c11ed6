// FIXTURE: raw throws bypass QDC_EXPECT / QDC_CHECK.
#include <stdexcept>

namespace qdc::graph {

int checked_degree(int degree) {
  if (degree < 0) throw std::invalid_argument("negative degree");
  if (degree > 1000)
    throw
        std::out_of_range("degree too large");
  return degree;
}

}  // namespace qdc::graph
