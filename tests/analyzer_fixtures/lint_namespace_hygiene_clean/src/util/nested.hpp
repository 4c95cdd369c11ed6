// FIXTURE: a plain nested namespace opening.
#pragma once

namespace qdc {
namespace util {
int nested();
}  // namespace util
}  // namespace qdc
