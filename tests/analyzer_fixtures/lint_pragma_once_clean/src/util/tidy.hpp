// FIXTURE: comments and blank lines may precede #pragma once.

#pragma once

namespace qdc::util {
inline int tidy() { return 2; }
}  // namespace qdc::util
