#include "quantum/fusion.hpp"

#include <string>
#include <utility>

#include "util/expect.hpp"

namespace qdc::quantum {

FusedCircuit::FusedCircuit(int qubit_count) : qubit_count_(qubit_count) {
  QDC_EXPECT(qubit_count >= 1 && qubit_count <= kMaxQubits,
             "FusedCircuit: qubit count must be in [1, kMaxQubits] "
             "(qubit_count = " +
                 std::to_string(qubit_count) + ")");
}

void FusedCircuit::record(Op op) {
  QDC_EXPECT(!sealed_, "FusedCircuit: circuit is sealed; record before seal()");
  ops_.push_back(std::move(op));
}

void FusedCircuit::gate(const Gate1& g, int qubit) {
  record([g, qubit](StateVector& s) { s.apply(g, qubit); });
}

void FusedCircuit::cnot(int control, int target) {
  record([control, target](StateVector& s) { s.cnot(control, target); });
}

void FusedCircuit::cz(int control, int target) {
  record([control, target](StateVector& s) { s.cz(control, target); });
}

void FusedCircuit::oracle(std::function<bool(std::size_t)> marked) {
  QDC_EXPECT(static_cast<bool>(marked),
             "FusedCircuit::oracle: marked predicate must be callable");
  record([marked = std::move(marked)](StateVector& s) {
    s.oracle_phase(marked);
  });
}

void FusedCircuit::seal() {
  QDC_EXPECT(!sealed_, "FusedCircuit::seal: circuit is already sealed");
  sealed_ = true;
}

void FusedCircuit::run(StateVector& state) const {
  QDC_EXPECT(sealed_, "FusedCircuit::run: seal() the circuit first");
  QDC_EXPECT(state.qubit_count() == qubit_count_,
             "FusedCircuit::run: state qubit count mismatch (circuit = " +
                 std::to_string(qubit_count_) + ", state = " +
                 std::to_string(state.qubit_count()) + ")");
  for (const Op& op : ops_) op(state);
}

}  // namespace qdc::quantum
