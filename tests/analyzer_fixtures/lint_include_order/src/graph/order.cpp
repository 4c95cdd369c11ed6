// FIXTURE: own header first is fine; then a system header out of
// alphabetical order, a system header after a project one, and a
// project header out of order.
#include "graph/order.hpp"

#include <vector>
#include <map>

#include "util/zeta.hpp"
#include <string>
#include "util/alpha.hpp"

namespace qdc::graph {
int order() { return 0; }
}  // namespace qdc::graph
