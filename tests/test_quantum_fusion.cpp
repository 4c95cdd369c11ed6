// Tests for the gate-fusion layer (quantum/fusion.hpp): FusedGate gather
// tables, FusedCircuit packing (frontier-only joins, window capacity,
// oracle barriers), the kernel's bit-identity contract, and the contract
// guards on every public entry point. Suite names here (QuantumFusion) are
// part of the TSan CI regex alongside QuantumDeterminism.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "quantum/fusion.hpp"
#include "quantum/gates.hpp"
#include "quantum/state.hpp"
#include "quantum/testing.hpp"
#include "util/expect.hpp"
#include "util/shard.hpp"
#include "util/thread_pool.hpp"

namespace qdc::quantum {
namespace {

bool bit_identical(const StateVector& a, const StateVector& b) {
  return a.dimension() == b.dimension() &&
         std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.dimension() * sizeof(Amplitude)) == 0;
}

// ---------------------------------------------------------------------------
// FusedGate: offsets, group bases

TEST(QuantumFusion, OffsetsAndGroupBasesSpreadWindowBits) {
  // Window {1, 3} in a 4-qubit register: local bit 0 -> qubit 1 (offset
  // 2), local bit 1 -> qubit 3 (offset 8); groups enumerate the basis
  // indices with qubits 1 and 3 clear.
  FusedGate f({1, 3});
  ASSERT_EQ(f.offsets().size(), 4u);
  EXPECT_EQ(f.offsets()[0], 0u);
  EXPECT_EQ(f.offsets()[1], 2u);
  EXPECT_EQ(f.offsets()[2], 8u);
  EXPECT_EQ(f.offsets()[3], 10u);
  EXPECT_EQ(f.group_base(0), 0u);
  EXPECT_EQ(f.group_base(1), 1u);
  EXPECT_EQ(f.group_base(2), 4u);
  EXPECT_EQ(f.group_base(3), 5u);
}

TEST(QuantumFusion, WindowQubitsAreSortedOnConstruction) {
  FusedGate f({5, 2, 0});
  EXPECT_EQ(f.qubits(), (std::vector<int>{0, 2, 5}));
}

// ---------------------------------------------------------------------------
// FusedCircuit packing

TEST(QuantumFusion, RepeatedSingleQubitGatesShareOneWindow) {
  FusedCircuit c(4, 2);
  c.gate(hadamard(), 0);
  c.gate(ry(0.3), 0);
  c.gate(rz(0.7), 0);
  c.seal();
  EXPECT_EQ(c.window_count(), 1);
  EXPECT_EQ(c.recorded_gate_count(), 3);
  EXPECT_EQ(c.pass_count(), 1);
}

TEST(QuantumFusion, FrontierPackingNeverReordersAcrossWindows) {
  // H(0), CNOT(2,3), H(0): the trailing H(0) mathematically commutes with
  // the CNOT, but hoisting it back into the first window would execute it
  // early and reassociate the floating-point arithmetic — breaking bit
  // identity. The packer therefore refuses: frontier-only means the
  // trailing H opens a THIRD window rather than rejoining the first.
  FusedCircuit c(4, 2);
  c.gate(hadamard(), 0);
  c.cnot(2, 3);
  c.gate(hadamard(), 0);
  c.seal();
  EXPECT_EQ(c.window_count(), 3);
  EXPECT_EQ(c.pass_count(), 3);
  EXPECT_EQ(c.recorded_gate_count(), 3);
}

TEST(QuantumFusion, FreshQubitJoinsFrontierWindowWithSpareCapacity) {
  // Gates on brand-new qubits still pack: the frontier window absorbs
  // them until it hits the size budget. H(0), H(5) share one 2-qubit
  // window even though the qubits are far apart in the register.
  FusedCircuit c(8, 2);
  c.gate(hadamard(), 0);
  c.gate(hadamard(), 5);
  c.seal();
  EXPECT_EQ(c.window_count(), 1);
  EXPECT_EQ(c.recorded_gate_count(), 2);
}

TEST(QuantumFusion, WindowCapacityForcesNewWindow) {
  // With window = 2, CNOT(0,1) then CNOT(1,2) cannot share: the union
  // {0,1,2} overflows, so the second opens a fresh window.
  FusedCircuit c(4, 2);
  c.cnot(0, 1);
  c.cnot(1, 2);
  c.seal();
  EXPECT_EQ(c.window_count(), 2);
  // With window = 3 the same pair fuses.
  FusedCircuit wide(4, 3);
  wide.cnot(0, 1);
  wide.cnot(1, 2);
  wide.seal();
  EXPECT_EQ(wide.window_count(), 1);
}

TEST(QuantumFusion, OracleActsAsFusionBarrier) {
  FusedCircuit c(4, 4);
  c.gate(hadamard(), 0);
  c.oracle([](std::size_t i) { return i == 0; });
  c.gate(hadamard(), 0);  // must NOT hoist past the oracle
  c.seal();
  EXPECT_EQ(c.window_count(), 2);
  EXPECT_EQ(c.pass_count(), 3);  // window, oracle, window
}

TEST(QuantumFusion, HadamardLayerPacksIntoCeilNOverWWindows) {
  FusedCircuit c(10, 4);
  for (int q = 0; q < 10; ++q) c.gate(hadamard(), q);
  c.seal();
  EXPECT_EQ(c.window_count(), 3);  // {0..3}, {4..7}, {8, 9}
}

// ---------------------------------------------------------------------------
// Exact kernel: bitwise identity with the classic kernels

TEST(QuantumFusion, ExactKernelBitIdenticalOnSmallState) {
  // 3 qubits, window 2: every window straddles the register, groups are
  // tiny, and the comparison is exact (memcmp), not approximate.
  StateVector reference(3);
  reference.apply(hadamard(), 0);
  reference.apply(ry(0.4), 1);
  reference.cnot(0, 1);
  reference.apply_controlled(phase_t(), 1, 2);
  reference.apply(rz(0.9), 2);
  reference.cz(0, 2);

  FusedCircuit c(3, 2);
  c.gate(hadamard(), 0);
  c.gate(ry(0.4), 1);
  c.cnot(0, 1);
  c.controlled(phase_t(), 1, 2);
  c.gate(rz(0.9), 2);
  c.cz(0, 2);
  c.seal();
  StateVector fused(3);
  c.run(fused);
  EXPECT_TRUE(bit_identical(fused, reference));
}

TEST(QuantumFusion, ExactKernelBitIdenticalOnShardedStateWithPool) {
  // 13 qubits (8192 amplitudes, multi-shard) with a 4-thread pool on the
  // fused side only: exercises over_aligned sharding + gather/scatter.
  constexpr int kQubits = 13;
  StateVector reference(kQubits);
  for (int q = 0; q < kQubits; ++q) reference.apply(hadamard(), q);
  for (int q = 0; q + 1 < kQubits; ++q) reference.cnot(q, q + 1);
  for (int q = 0; q < kQubits; ++q) reference.apply(ry(0.1 * q + 0.2), q);
  reference.swap(0, kQubits - 1);

  util::ThreadPool pool(4);
  FusedCircuit c(kQubits, kDefaultFusionWindow);
  for (int q = 0; q < kQubits; ++q) c.gate(hadamard(), q);
  for (int q = 0; q + 1 < kQubits; ++q) c.cnot(q, q + 1);
  for (int q = 0; q < kQubits; ++q) c.gate(ry(0.1 * q + 0.2), q);
  c.swap(0, kQubits - 1);
  c.seal();
  StateVector fused(kQubits, &pool);
  c.run(fused);
  EXPECT_TRUE(bit_identical(fused, reference));
}

TEST(QuantumFusion, FuseThenCollapseMatchesGateByGateToZeroUlp) {
  // Property test for the documented contract: fusing a window and then
  // collapsing must match gate-by-gate application within 0 ULP — the
  // measurement sees bit-identical amplitudes, so the same draw r picks
  // the same outcome and leaves a bit-identical post-measurement state.
  for (int trial = 0; trial < 8; ++trial) {
    StateVector reference(6);
    StateVector fused_state(6);
    FusedCircuit c(6, 3);
    for (int q = 0; q < 6; ++q) {
      const double theta = 0.21 * trial + 0.13 * q - 0.4;
      reference.apply(hadamard(), q);
      reference.apply(ry(theta), q);
      c.gate(hadamard(), q);
      c.gate(ry(theta), q);
    }
    for (int q = 0; q + 1 < 6; ++q) {
      reference.cnot(q, q + 1);
      c.cnot(q, q + 1);
    }
    c.seal();
    c.run(fused_state);
    ASSERT_TRUE(bit_identical(fused_state, reference)) << "trial " << trial;
    const double r = 0.125 * trial + 0.0625;  // in [0, 1) for all trials
    const std::size_t ref_outcome =
        StateVectorTestAccess::collapse_all_with(reference, r);
    const std::size_t fused_outcome =
        StateVectorTestAccess::collapse_all_with(fused_state, r);
    EXPECT_EQ(fused_outcome, ref_outcome) << "trial " << trial;
    EXPECT_TRUE(bit_identical(fused_state, reference)) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Contract guards

TEST(QuantumFusion, RejectsBadWindowsAndQubits) {
  EXPECT_THROW(FusedCircuit(0, 4), ContractError);
  EXPECT_THROW(FusedCircuit(4, 1), ContractError);
  EXPECT_THROW(FusedCircuit(4, kMaxFusionWindow + 1), ContractError);
  FusedCircuit c(4, 2);
  EXPECT_THROW(c.gate(hadamard(), 4), ContractError);
  EXPECT_THROW(c.gate(hadamard(), -1), ContractError);
  EXPECT_THROW(c.controlled(phase_t(), 1, 1), ContractError);
  EXPECT_THROW(c.controlled(phase_t(), 0, 5), ContractError);
  EXPECT_THROW(c.swap(0, 4), ContractError);
  EXPECT_THROW(c.oracle(nullptr), ContractError);
  EXPECT_THROW(FusedGate({}), ContractError);
  EXPECT_THROW(FusedGate({0, 0}), ContractError);
  EXPECT_THROW(FusedGate({0, 1, 2, 3, 4, 5, 6}), ContractError);
  FusedGate f({0, 2});
  EXPECT_THROW(f.push_gate(hadamard(), 1), ContractError);
  EXPECT_THROW(f.push_controlled(phase_t(), 0, 0), ContractError);
}

TEST(QuantumFusion, SealAndRunOrderingIsEnforced) {
  FusedCircuit c(3, 2);
  c.gate(hadamard(), 0);
  StateVector s(3);
  EXPECT_THROW(c.run(s), ContractError);  // run before seal
  c.seal();
  EXPECT_THROW(c.gate(hadamard(), 1), ContractError);  // record after seal
  EXPECT_THROW(c.seal(), ContractError);               // double seal
  StateVector wrong(4);
  EXPECT_THROW(c.run(wrong), ContractError);  // qubit-count mismatch
  c.run(s);                                   // matching state still works
  EXPECT_NEAR(s.norm_squared(), 1.0, 1e-12);
}

TEST(QuantumFusion, AlignedShardPlanKeepsBlocksWhole) {
  // The plan the fused kernels shard with: boundaries stay multiples of
  // the block size, cover [0, items) contiguously, and reduce to over()
  // when align = 1.
  const util::ShardPlan plan = util::ShardPlan::over_aligned(1 << 13, 16);
  EXPECT_EQ(plan.begin(0), 0u);
  EXPECT_EQ(plan.end(plan.shards - 1), std::size_t{1} << 13);
  for (int s = 0; s < plan.shards; ++s) {
    EXPECT_EQ(plan.begin(s) % 16, 0u) << s;
    EXPECT_EQ(plan.end(s) % 16, 0u) << s;
    if (s > 0) {
      EXPECT_EQ(plan.begin(s), plan.end(s - 1)) << s;
    }
  }
  const util::ShardPlan unaligned = util::ShardPlan::over(1 << 13);
  const util::ShardPlan trivial = util::ShardPlan::over_aligned(1 << 13, 1);
  EXPECT_EQ(trivial.shards, unaligned.shards);
  for (int s = 0; s < trivial.shards; ++s) {
    EXPECT_EQ(trivial.begin(s), unaligned.begin(s)) << s;
    EXPECT_EQ(trivial.end(s), unaligned.end(s)) << s;
  }
  EXPECT_THROW(util::ShardPlan::over_aligned(100, 16), ContractError);
  EXPECT_THROW(util::ShardPlan::over_aligned(64, 0), ContractError);
}

}  // namespace
}  // namespace qdc::quantum
