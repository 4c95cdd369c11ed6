// Textbook quantum query algorithms on the statevector, rounding out the
// quantum substrate: Deutsch-Jozsa, Bernstein-Vazirani and the quantum
// Fourier transform. They exercise the same oracle machinery Grover uses
// (and are the standard sanity suite for any statevector simulator).
#pragma once

#include <functional>

#include "quantum/state.hpp"

namespace qdc::quantum {

/// Deutsch-Jozsa: decides with ONE query whether a promise function
/// f : {0,1}^n -> {0,1} is constant or balanced. Returns true iff
/// constant. The promise (constant or exactly-balanced) is the caller's
/// responsibility.
bool deutsch_jozsa_is_constant(int num_qubits,
                               const std::function<bool(std::size_t)>& f);

/// Bernstein-Vazirani: recovers the hidden string s of f(x) = <s, x> mod 2
/// with one query. Returns s as a basis index.
std::size_t bernstein_vazirani(int num_qubits,
                               const std::function<bool(std::size_t)>& f);

/// In-place quantum Fourier transform over all qubits of `state`
/// (convention: QFT|x> = sum_y exp(2 pi i x y / 2^n) |y> / sqrt(2^n)).
void qft(StateVector& state);

/// Inverse QFT.
void inverse_qft(StateVector& state);

}  // namespace qdc::quantum
