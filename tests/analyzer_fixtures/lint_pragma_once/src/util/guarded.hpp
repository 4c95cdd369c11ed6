// FIXTURE: an include guard instead of #pragma once.
#ifndef QDC_UTIL_GUARDED_HPP
#define QDC_UTIL_GUARDED_HPP

namespace qdc::util {
inline int guarded() { return 1; }
}  // namespace qdc::util

#endif
