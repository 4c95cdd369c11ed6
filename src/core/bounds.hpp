// Evaluable forms of the paper's bounds (Theorems 3.5, 3.6, 3.8;
// Corollaries 3.7, 3.9; Example 1.1), with the explicit parameter choices
// from Section 9. Everything here is a closed-form function of
// (n, B, W, alpha, D) so benches can plot the proved lower envelopes
// against measured algorithm round counts.
//
// Bandwidth convention: the simulator counts *fields* of ~log2(n) bits;
// the paper's B counts bits. `fields_to_bits` converts.
#pragma once

#include <cmath>

namespace qdc::core {

/// B_bits ~= fields * ceil(log2 n).
double fields_to_bits(int fields, int n);

/// Theorem 3.6 / Corollary 3.7: verification lower bound
/// Omega(sqrt(n / (B log n))) for Ham, ST, connectivity, ... (B in bits).
double verification_lower_bound(int n, double b_bits);

/// Theorem 3.8 / Corollary 3.9: optimization lower bound
/// Omega(min(W/alpha, sqrt(n)) / sqrt(B log n)) for alpha-approximate MST,
/// min cut, shortest paths, ...
double optimization_lower_bound(int n, double b_bits, double aspect_ratio,
                                double alpha);

/// Figure 3's crossover: the weight aspect ratio where the W/alpha branch
/// meets the sqrt(n) branch, W* = alpha sqrt(n).
double figure3_crossover_aspect(int n, double alpha);

/// Section 9.1's parameter choices for Theorem 3.5: given n and B (bits),
/// L ~ sqrt(n / (B log n)) and Gamma ~ sqrt(n B log n), so that
/// Gamma * L = Theta(n).
struct SimulationParameters {
  int length = 0;  ///< L
  int gamma = 0;   ///< Gamma
};
SimulationParameters theorem35_parameters(int n, double b_bits);

/// Example 1.1: round costs of distributed Disjointness on b-bit inputs
/// over a diameter-D network with B bits per round.
double disjointness_classical_rounds(int b, double b_bits, int diameter);
double disjointness_quantum_rounds(int b, int diameter);
/// The input size at which the quantum protocol starts winning
/// (sqrt(b) D < b / B  <=>  b > (B D)^2).
double disjointness_crossover_bits(double b_bits, int diameter);

}  // namespace qdc::core
