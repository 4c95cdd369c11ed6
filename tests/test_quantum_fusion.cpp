// Tests for the FusedCircuit recorder (quantum/fusion.hpp): run() issues
// the recorded calls in record order, so it is bit-identical to making
// them directly, and the seal/run contract throws ContractError.
#include <gtest/gtest.h>

#include <cstring>

#include "quantum/fusion.hpp"
#include "quantum/gates.hpp"
#include "quantum/state.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace qdc::quantum {
namespace {

TEST(FusedCircuit, RunBitIdenticalToDirectCallsOnPooledState) {
  // 13 qubits (8192 amplitudes, multi-shard) on a 4-thread pool. The
  // rotations, ladders and oracle do not commute, so a dropped or
  // reordered call shows as a mismatch.
  constexpr int kQubits = 13;
  const auto marked = [](std::size_t i) { return i % 7 == 3; };
  util::ThreadPool pool(4);
  StateVector direct(kQubits, &pool);
  FusedCircuit circuit(kQubits);
  for (int q = 0; q < kQubits; ++q) {
    direct.apply(ry(0.1 * q + 0.2), q);
    circuit.gate(ry(0.1 * q + 0.2), q);
  }
  for (int q = 0; q + 1 < kQubits; ++q) {
    direct.cnot(q, q + 1);
    circuit.cnot(q, q + 1);
  }
  direct.oracle_phase(marked);
  circuit.oracle(marked);
  for (int q = kQubits - 1; q > 0; --q) {
    direct.apply(rz(0.3 * q), q);
    circuit.gate(rz(0.3 * q), q);
    direct.cz(q, q - 1);
    circuit.cz(q, q - 1);
  }
  circuit.seal();
  StateVector replayed(kQubits, &pool);
  circuit.run(replayed);
  EXPECT_EQ(std::memcmp(replayed.amplitudes().data(),
                        direct.amplitudes().data(),
                        direct.dimension() * sizeof(Amplitude)),
            0);
}

TEST(FusedCircuit, SealAndRunContractHolds) {
  EXPECT_THROW(FusedCircuit(0), ContractError);
  EXPECT_THROW(FusedCircuit(kMaxQubits + 1), ContractError);
  FusedCircuit c(3);
  c.gate(hadamard(), 0);
  EXPECT_THROW(c.oracle(nullptr), ContractError);
  StateVector s(3);
  EXPECT_THROW(c.run(s), ContractError);  // run before seal
  c.seal();
  EXPECT_THROW(c.gate(hadamard(), 1), ContractError);  // record after seal
  EXPECT_THROW(c.cnot(0, 1), ContractError);
  EXPECT_THROW(c.cz(0, 1), ContractError);
  EXPECT_THROW(c.oracle([](std::size_t) { return true; }), ContractError);
  EXPECT_THROW(c.seal(), ContractError);  // double seal
  StateVector wrong(4);
  EXPECT_THROW(c.run(wrong), ContractError);  // qubit-count mismatch
  c.run(s);                                   // matching state still works
  EXPECT_NEAR(s.probability_one(0), 0.5, 1e-12);
}

}  // namespace
}  // namespace qdc::quantum
