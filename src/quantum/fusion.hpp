// FusedCircuit: a recorded gate sequence, replayed per gate.
//
// It exists only for perfbench (perfbench/src/statevector.cpp), which
// records its circuit here and checks run() against the same per-gate
// calls made directly, and it goes at the next benchmark change. Nothing
// in src/ uses it: StateVector's per-gate kernels are the one way a gate
// sequence is applied. run() issues the recorded apply / cnot / cz /
// oracle_phase calls in record order, so it is bit-identical to making
// them directly.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "quantum/state.hpp"

namespace qdc::quantum {

class FusedCircuit {
 public:
  /// An empty circuit over `qubit_count` qubits, in [1, kMaxQubits].
  explicit FusedCircuit(int qubit_count);

  /// Record StateVector::apply(g, qubit), cnot, cz and oracle_phase.
  void gate(const Gate1& g, int qubit);
  void cnot(int control, int target);
  void cz(int control, int target);
  void oracle(std::function<bool(std::size_t)> marked);

  /// Freezes the circuit. Recording after seal() and running before it
  /// are contract errors.
  void seal();

  /// Issues the recorded calls on `state`, which must have the circuit's
  /// qubit count.
  void run(StateVector& state) const;

 private:
  using Op = std::function<void(StateVector&)>;

  void record(Op op);

  int qubit_count_;
  std::vector<Op> ops_;
  bool sealed_ = false;
};

}  // namespace qdc::quantum
