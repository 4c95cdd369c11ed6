#include "quantum/protocols.hpp"

#include <numbers>

#include "quantum/gates.hpp"
#include "util/expect.hpp"

namespace qdc::quantum {

void make_epr(StateVector& state, int a, int b) {
  state.apply(hadamard(), a);
  state.cnot(a, b);
}

TeleportBits teleport(StateVector& state, int source, int epr_a, int epr_b,
                      Rng& rng) {
  QDC_EXPECT(source != epr_a && source != epr_b && epr_a != epr_b,
             "teleport: qubits must be distinct");
  // Bell measurement of (source, epr_a).
  state.cnot(source, epr_a);
  state.apply(hadamard(), source);
  TeleportBits bits;
  bits.z = state.measure(source, rng);
  bits.x = state.measure(epr_a, rng);
  // Receiver's corrections.
  if (bits.x) state.apply(pauli_x(), epr_b);
  if (bits.z) state.apply(pauli_z(), epr_b);
  return bits;
}

std::pair<bool, bool> superdense_roundtrip(bool b0, bool b1, Rng& rng,
                                           util::ThreadPool* pool) {
  StateVector state(2, pool);
  make_epr(state, 0, 1);  // qubit 0: sender, qubit 1: receiver
  // Encode: Z for b0, X for b1 on the sender's half.
  if (b0) state.apply(pauli_z(), 0);
  if (b1) state.apply(pauli_x(), 0);
  // The sender's qubit travels to the receiver, who decodes.
  state.cnot(0, 1);
  state.apply(hadamard(), 0);
  const bool d0 = state.measure(0, rng);
  const bool d1 = state.measure(1, rng);
  return {d0, d1};
}

bool chsh_play_quantum(bool x, bool y, Rng& rng) {
  StateVector state(2);
  make_epr(state, 0, 1);
  // Optimal real measurement bases: rotating by theta and measuring Z
  // yields P(a == b) = cos^2((theta_a - theta_b) / 2) on the EPR pair.
  const double alpha = x ? std::numbers::pi / 2.0 : 0.0;
  const double beta = y ? -std::numbers::pi / 4.0 : std::numbers::pi / 4.0;
  state.apply(ry(alpha), 0);
  state.apply(ry(beta), 1);
  const bool a = state.measure(0, rng);
  const bool b = state.measure(1, rng);
  return (a != b) == (x && y);
}

bool chsh_play_classical(bool x, bool y) {
  // Best deterministic strategy: both always answer 0; wins 3 of 4 inputs.
  return !(x && y);
}

}  // namespace qdc::quantum
