#include "quantum/algorithms.hpp"

#include <cmath>
#include <numbers>

#include "quantum/gates.hpp"
#include "util/expect.hpp"

namespace qdc::quantum {

namespace {

/// Controlled phase gate diag(1, e^{i theta}) on the target.
Gate1 phase_gate(double theta) {
  return Gate1{{1, 0}, {0, 0}, {0, 0}, {std::cos(theta), std::sin(theta)}};
}

}  // namespace

bool deutsch_jozsa_is_constant(int num_qubits,
                               const std::function<bool(std::size_t)>& f) {
  QDC_EXPECT(num_qubits >= 1 && num_qubits <= kMaxQubits,
             "deutsch_jozsa: qubit count out of range");
  StateVector state(num_qubits);
  for (int q = 0; q < num_qubits; ++q) state.apply(hadamard(), q);
  state.oracle_phase(f);  // phase kickback form of the oracle
  for (int q = 0; q < num_qubits; ++q) state.apply(hadamard(), q);
  // Constant f leaves all amplitude on |0...0>; balanced f leaves none.
  return state.probability_of(0) > 0.5;
}

std::size_t bernstein_vazirani(int num_qubits,
                               const std::function<bool(std::size_t)>& f) {
  QDC_EXPECT(num_qubits >= 1 && num_qubits <= kMaxQubits,
             "bernstein_vazirani: qubit count out of range");
  StateVector state(num_qubits);
  for (int q = 0; q < num_qubits; ++q) state.apply(hadamard(), q);
  state.oracle_phase(f);
  for (int q = 0; q < num_qubits; ++q) state.apply(hadamard(), q);
  // The state is exactly |s>; report the most likely basis state.
  std::size_t best = 0;
  double best_p = -1.0;
  for (std::size_t i = 0; i < state.dimension(); ++i) {
    const double p = state.probability_of(i);
    if (p > best_p) {
      best_p = p;
      best = i;
    }
  }
  QDC_CHECK(best_p > 0.99,
            "bernstein_vazirani: oracle is not of the form <s, x>");
  return best;
}

void qft(StateVector& state) {
  const int n = state.qubit_count();
  for (int i = n - 1; i >= 0; --i) {
    state.apply(hadamard(), i);
    for (int k = i - 1; k >= 0; --k) {
      state.apply_controlled(
          phase_gate(std::numbers::pi / double(1 << (i - k))), k, i);
    }
  }
  for (int j = 0; j < n / 2; ++j) {
    state.swap(j, n - 1 - j);
  }
}

void inverse_qft(StateVector& state) {
  const int n = state.qubit_count();
  for (int j = 0; j < n / 2; ++j) {
    state.swap(j, n - 1 - j);
  }
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k <= i - 1; ++k) {
      state.apply_controlled(
          phase_gate(-std::numbers::pi / double(1 << (i - k))), k, i);
    }
    state.apply(hadamard(), i);
  }
}

}  // namespace qdc::quantum
