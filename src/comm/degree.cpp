#include "comm/degree.hpp"

#include <cmath>
#include <cstdlib>

#include "util/expect.hpp"

namespace qdc::comm {

SymmetricFunction SymmetricFunction::or_n(std::size_t n) {
  SymmetricFunction f;
  f.profile.assign(n + 1, 1);
  f.profile[0] = 0;
  return f;
}

SymmetricFunction SymmetricFunction::majority(std::size_t n) {
  SymmetricFunction f;
  f.profile.assign(n + 1, 0);
  for (std::size_t k = 0; k <= n; ++k) {
    if (2 * k > n) f.profile[k] = 1;
  }
  return f;
}

SymmetricFunction SymmetricFunction::parity(std::size_t n) {
  SymmetricFunction f;
  f.profile.assign(n + 1, 0);
  for (std::size_t k = 0; k <= n; ++k) f.profile[k] = static_cast<int>(k % 2);
  return f;
}

SymmetricFunction SymmetricFunction::mod_counter(std::size_t n, int m,
                                                 int r) {
  QDC_EXPECT(m >= 2 && r >= 0 && r < m, "mod_counter: bad modulus/residue");
  SymmetricFunction f;
  f.profile.assign(n + 1, 0);
  for (std::size_t k = 0; k <= n; ++k) {
    if (static_cast<int>(k % static_cast<std::size_t>(m)) == r) {
      f.profile[k] = 1;
    }
  }
  return f;
}

std::size_t paturi_gamma(const SymmetricFunction& f) {
  QDC_EXPECT(f.profile.size() >= 2, "paturi_gamma: profile too short");
  const std::size_t n = f.n();
  std::size_t gamma = n;
  for (std::size_t k = 0; k + 1 <= n; ++k) {
    if (f.profile[k] != f.profile[k + 1]) {
      const long v = std::labs(2 * static_cast<long>(k) -
                               static_cast<long>(n) + 1);
      gamma = std::min(gamma, static_cast<std::size_t>(v));
    }
  }
  return gamma;
}

double approx_degree_estimate(const SymmetricFunction& f) {
  const std::size_t n = f.n();
  const std::size_t gamma = paturi_gamma(f);
  if (gamma >= n) return 0.0;  // constant function
  return std::sqrt(static_cast<double>(n) *
                   static_cast<double>(n - gamma + 1));
}

}  // namespace qdc::comm
