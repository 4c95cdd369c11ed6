#include "core/bounds.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace qdc::core {

namespace {
double log2n(int n) { return std::log2(std::max(2.0, double(n))); }
}  // namespace

double fields_to_bits(int fields, int n) {
  QDC_EXPECT(fields >= 1, "fields_to_bits: bad field count");
  return fields * std::ceil(log2n(n));
}

double verification_lower_bound(int n, double b_bits) {
  QDC_EXPECT(n >= 2 && b_bits >= 1.0, "verification_lower_bound: bad args");
  return std::sqrt(double(n) / (b_bits * log2n(n)));
}

double optimization_lower_bound(int n, double b_bits, double aspect_ratio,
                                double alpha) {
  QDC_EXPECT(alpha >= 1.0 && aspect_ratio >= 1.0,
             "optimization_lower_bound: bad args");
  const double branch = std::min(aspect_ratio / alpha, std::sqrt(double(n)));
  return branch / std::sqrt(b_bits * log2n(n));
}

double figure3_crossover_aspect(int n, double alpha) {
  return alpha * std::sqrt(double(n));
}

SimulationParameters theorem35_parameters(int n, double b_bits) {
  QDC_EXPECT(n >= 4, "theorem35_parameters: n too small");
  SimulationParameters p;
  p.length = std::max(
      3, static_cast<int>(std::floor(std::sqrt(n / (b_bits * log2n(n))))));
  p.gamma = std::max(
      1, static_cast<int>(std::ceil(std::sqrt(n * b_bits * log2n(n)))));
  return p;
}

double disjointness_classical_rounds(int b, double b_bits, int diameter) {
  QDC_EXPECT(b >= 1 && b_bits >= 1.0 && diameter >= 1,
             "disjointness_classical_rounds: bad args");
  return std::ceil(double(b) / b_bits) + diameter;
}

double disjointness_quantum_rounds(int b, int diameter) {
  QDC_EXPECT(b >= 1 && diameter >= 1,
             "disjointness_quantum_rounds: bad args");
  // pi/4 sqrt(b) Grover iterations, each a 2D-round oracle round trip,
  // plus D rounds to announce.
  return std::ceil(0.7853981633974483 * std::sqrt(double(b))) * 2.0 *
             diameter +
         diameter;
}

double disjointness_crossover_bits(double b_bits, int diameter) {
  // b / B = (pi/4) sqrt(b) 2 D  =>  b = ((pi/2) B D)^2.
  const double c = 1.5707963267948966 * b_bits * diameter;
  return c * c;
}

}  // namespace qdc::core
