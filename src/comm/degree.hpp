// Approximate polynomial degree of symmetric boolean functions (Paturi's
// theorem), the quantitative engine behind Theorem 6.1's IPmod3 bound:
// deg_{1/3}(f) = Theta(sqrt(n (n - Gamma(f)))) where
// Gamma(f) = min { |2k - n + 1| : f_k != f_{k+1} }.
//
// For the paper's outer function f(z) = [sum z_i mod 3 == 0], Gamma is
// O(1), so the degree is Theta(n) - which Lemma B.4 then converts into the
// Omega(n) server-model bound.
#pragma once

#include <cstddef>
#include <vector>

namespace qdc::comm {

/// A symmetric boolean function on n bits, given by its profile
/// f_k = f(x : |x| = k) for k = 0..n.
struct SymmetricFunction {
  std::vector<int> profile;  ///< size n+1, entries in {0,1}

  std::size_t n() const { return profile.size() - 1; }

  static SymmetricFunction or_n(std::size_t n);
  static SymmetricFunction majority(std::size_t n);
  static SymmetricFunction parity(std::size_t n);
  /// [sum mod m == r]
  static SymmetricFunction mod_counter(std::size_t n, int m, int r);
};

/// Paturi's jump location: min |2k - n + 1| over profile jumps; n if the
/// function is constant (no jump).
std::size_t paturi_gamma(const SymmetricFunction& f);

/// The Theta(sqrt(n (n - Gamma + 1))) degree estimate (exact up to the
/// constant hidden by Theta).
double approx_degree_estimate(const SymmetricFunction& f);

}  // namespace qdc::comm
