// FIXTURE: own header, sorted system block, sorted project block; an
// #if-guarded include takes no part in the order.
#include "graph/tidy.hpp"

#include <map>
#include <string>
#include <vector>

#include "util/alpha.hpp"
#include "util/zeta.hpp"

#ifdef QDC_TIDY_DEBUG
#include <cassert>
#endif

namespace qdc::graph {
int tidy() { return 0; }
}  // namespace qdc::graph
