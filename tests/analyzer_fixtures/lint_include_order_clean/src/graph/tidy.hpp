// FIXTURE: own header of tidy.cpp.
#pragma once

namespace qdc::graph {
int tidy();
}  // namespace qdc::graph
