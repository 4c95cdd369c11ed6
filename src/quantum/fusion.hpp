// Gate fusion: coalesce runs of single- and two-qubit gates that touch a
// small window of qubits into one window, applied in a single
// cache-blocked pass over the statevector.
//
// Why: every StateVector::apply is a memory-bound sweep over all 2^n
// amplitudes, so a circuit of G gates costs G full passes. Fusing gates
// into windows of w qubits costs one pass per *window* instead; on
// out-of-cache states (2^21+ amplitudes) that traffic reduction is where
// any speedup comes from. The fused row of the speedup-gate table in
// tools/check_bench_schema.py measures it.
//
// The kernel (FusedCircuit::run and its private panel pass) gathers each
// 2^w-amplitude group into a contiguous panel, replays the window's
// recorded gates inside the panel with the same pair-update expressions
// as the classic kernels, and scatters back. Gather and scatter are pure
// copies and every pair update sees exactly the operands the unfused
// kernel would, so the result is BIT-IDENTICAL to gate-by-gate
// application — the fused path's documented contract, pinned by the
// QuantumFusion tests and asserted in-bench by bench_quantum_scaling.
//
// The kernel shards groups with ShardPlan::over_aligned, so the
// determinism contract of state.hpp carries over unchanged: groups are
// disjoint, no cross-group reductions exist, and results are
// bit-identical for a null pool and pools of 1, 2 or N threads.
//
// Fusion is explicit: a caller records a FusedCircuit and runs it.
// StateVector and the algorithm layers (qft, grover_search, teleport, ...)
// apply gates one by one and never route through this module, so the
// per-gate kernels are the one production path and the reference the
// fused path is checked against. This header's users are tests and
// benches; fusion.cpp reaches the amplitudes through StateVector's
// friend declaration.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "quantum/state.hpp"

namespace qdc::quantum {

/// Hard cap on a fused-gate window: 2^6 = 64 panel amplitudes, 1 KiB —
/// sized so a gather panel stays L1-resident.
inline constexpr int kMaxFusionWindow = 6;

/// Default FusedCircuit window: 2^5 = 32-amplitude panels. Wide enough to
/// absorb the H / rotation / CNOT-chain runs the repo's circuits are made
/// of (a Hadamard layer over n qubits packs into ceil(n/5) passes), small
/// enough that a panel stays comfortably L1-resident; measured fastest of
/// the legal windows on the gates workload of bench_quantum_scaling.
inline constexpr int kDefaultFusionWindow = 5;

/// One recorded gate inside a fused window, with qubits resolved to bit
/// positions local to the window (window qubits sorted ascending; local
/// bit j corresponds to FusedGate::qubits()[j]).
struct WindowOp {
  Gate1 g;
  int local0 = 0;   ///< target's local bit
  int local1 = -1;  ///< control's local bit; -1 for single-qubit gates
};

/// A fused window: an ordered list of gates on a fixed set of at most
/// kMaxFusionWindow qubits, together with the precomputed machinery the
/// kernel needs — gather offsets and local-index ops. Built by
/// FusedCircuit::seal(); usable directly in tests.
class FusedGate {
 public:
  /// Window over `qubits` (distinct, each in [0, kMaxQubits)). Qubits are
  /// sorted internally; the window starts with no gates.
  explicit FusedGate(std::vector<int> qubits);

  /// Appends a single-qubit gate on `qubit` (must be a window qubit).
  void push_gate(const Gate1& g, int qubit);

  /// Appends a controlled single-qubit gate (both window qubits,
  /// control != target).
  void push_controlled(const Gate1& g, int control, int target);

  /// Window qubits, sorted ascending.
  const std::vector<int>& qubits() const { return qubits_; }
  int window() const { return static_cast<int>(qubits_.size()); }
  /// Panel size: 2^window().
  std::size_t dim() const { return std::size_t{1} << qubits_.size(); }
  int gate_count() const { return static_cast<int>(ops_.size()); }
  const std::vector<WindowOp>& ops() const { return ops_; }

  /// Gather table: offsets()[m] = sum over set bits j of m of
  /// 1 << qubits()[j]. Group amplitude m lives at group_base(g) +
  /// offsets()[m] in the full statevector.
  const std::vector<std::size_t>& offsets() const { return offsets_; }

  /// Base index of gather group `group`: the group-th basis index whose
  /// window-qubit bits are all clear.
  std::size_t group_base(std::size_t group) const {
    for (const int q : qubits_) {
      group = detail::insert_zero_bit(group, q);
    }
    return group;
  }

 private:
  int local_index(int qubit) const;

  std::vector<int> qubits_;
  std::vector<WindowOp> ops_;
  std::vector<std::size_t> offsets_;
};

/// Records a gate sequence and packs it into fused windows online, with
/// frontier-only packing: each incoming gate joins the MOST RECENT window
/// when its qubits fit (they are already window qubits, or adding them
/// keeps the window within its size budget), and opens a new window
/// otherwise. Only the frontier may absorb a gate on purpose: hoisting
/// into any earlier window would execute the gate before gates it was
/// recorded after. That reordering is mathematically sound when the
/// skipped gates act on disjoint qubits — but it reassociates the
/// floating-point arithmetic, so the amplitudes drift at the last ulp and
/// the bit-identity contract breaks. Frontier-only packing keeps
/// execution order literally equal to record order, which is what makes
/// run() bit-identical by construction. Oracles are barriers: the window
/// open when oracle() is called never absorbs gates recorded after it.
///
/// Usage: record with gate()/controlled()/cnot()/cz()/swap()/oracle(),
/// then seal() once, then run() (bit-identical to the unfused sequence)
/// any number of times against states of the matching qubit count.
class FusedCircuit {
 public:
  explicit FusedCircuit(int qubit_count, int window = kDefaultFusionWindow);

  void gate(const Gate1& g, int qubit);
  void controlled(const Gate1& g, int control, int target);

  /// Conveniences mirroring StateVector: same matrices, same expansion
  /// (swap = 3 CNOTs; swap(a, a) is a no-op), so fused runs stay
  /// bit-identical to the unfused call sequence.
  void cnot(int control, int target);
  void cz(int control, int target);
  void swap(int a, int b);

  /// Records a phase oracle (StateVector::oracle_phase) at this point in
  /// the sequence. Oracles see full basis indices and act as fusion
  /// barriers.
  void oracle(std::function<bool(std::size_t)> marked);

  /// Freezes the circuit and builds the FusedGate for every window.
  /// Recording past seal() is a contract error; run() before it is too.
  void seal();
  bool sealed() const { return sealed_; }

  /// Replays the sequence on `state` through the exact fused kernel
  /// (single-gate windows pass through to the classic kernels — a fused
  /// pass only pays for itself once a window holds >= 2 gates).
  /// Bit-identical to issuing the recorded calls directly on `state`.
  void run(StateVector& state) const;

  int qubit_count() const { return qubit_count_; }
  int window() const { return window_; }

  /// Packing introspection: number of fused windows, number of recorded
  /// gates across them, and the number of full-state passes a run() costs
  /// (windows + oracles) versus the unfused sequence (gates + oracles).
  int window_count() const { return static_cast<int>(windows_.size()); }
  int recorded_gate_count() const;
  int pass_count() const { return static_cast<int>(ops_.size()); }

 private:
  /// A recorded gate before sealing: q1 = -1 for single-qubit gates,
  /// otherwise q0 = target and q1 = control.
  struct Recorded {
    Gate1 g;
    int q0;
    int q1;
  };
  struct WindowBuild {
    std::vector<int> qubits;
    std::vector<Recorded> gates;
  };
  /// One step of the sealed execution order: a window index, or an oracle
  /// (window < 0).
  struct Step {
    int window = -1;
    std::function<bool(std::size_t)> oracle;
  };

  /// Applies one window in a single cache-blocked pass: gather each
  /// 2^w-amplitude group into a contiguous panel, replay the window's
  /// recorded gates inside the panel, scatter back. Bit-identical to
  /// applying the recorded gates one by one through StateVector::apply /
  /// apply_controlled.
  static void apply_window(StateVector& state, const FusedGate& fused);

  int open_window(std::vector<int> qubits);
  void expect_recording(const char* fn) const;
  void expect_qubit(int qubit, const char* fn) const;

  int qubit_count_;
  int window_;
  std::vector<WindowBuild> windows_;
  std::vector<Step> ops_;
  int barrier_floor_ = 0;  // windows below this predate the last oracle
  bool sealed_ = false;
  std::vector<FusedGate> fused_;  // by window index, built by seal()
};

}  // namespace qdc::quantum
