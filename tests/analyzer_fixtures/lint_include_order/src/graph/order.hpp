// FIXTURE: own header of order.cpp.
#pragma once

namespace qdc::graph {
int order();
}  // namespace qdc::graph
