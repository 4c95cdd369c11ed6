#include "check.hpp"

#include <algorithm>
#include <tuple>

namespace qdc::analyze {

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.file, a.line, a.rule, a.detail) <
                            std::tie(b.file, b.line, b.rule, b.detail);
                   });
}

namespace {
std::vector<const Check*>& mutable_registry() {
  static std::vector<const Check*> registry;
  return registry;
}
}  // namespace

const std::vector<const Check*>& check_registry() {
  return mutable_registry();
}

namespace detail {
CheckRegistrar::CheckRegistrar(const Check* check) {
  mutable_registry().push_back(check);
}
}  // namespace detail

}  // namespace qdc::analyze
