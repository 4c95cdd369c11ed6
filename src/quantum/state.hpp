// Dense statevector simulator.
//
// This is the quantum substrate of the reproduction: the paper's model
// (Appendix A.1) gives nodes quantum workspaces, quantum channels and
// arbitrary prior entanglement. Full networks cannot be simulated
// classically at scale, but every place where quantumness actually changes
// an outcome in this paper is small: EPR pairs and teleportation
// (Section 6's reduction from qubits to classical bits), nonlocal-game
// strategies (CHSH), and Grover search inside the distributed Disjointness
// protocol of Example 1.1. Those all fit comfortably in a statevector of
// at most kMaxQubits (= 24) qubits — the one limit every allocator of a
// StateVector (grover_search, Deutsch-Jozsa, ...) shares.
//
// Parallelism: every amplitude kernel can shard its index range over an
// injected, non-owning util::ThreadPool (null = serial, the default).
// Shard boundaries depend on the amplitude count only — never on the
// thread count — and every floating-point reduction tallies into
// shard-indexed slots that are merged serially in shard order, so all
// results are bit-identical for a null pool and for pools of 1, 2 or N
// threads (pinned by the QuantumDeterminism suite). See util/shard.hpp
// and docs/ARCHITECTURE.md for the contract.
//
// Conventions: qubit 0 is the least significant bit of the basis index;
// basis state |b_{n-1} ... b_1 b_0>.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace qdc::util {
class ThreadPool;
}  // namespace qdc::util

namespace qdc::quantum {

/// Hard cap on statevector width (2^24 amplitudes, 256 MiB), shared by the
/// StateVector constructor and by every algorithm that allocates one
/// (grover_search, deutsch_jozsa_is_constant, bernstein_vazirani).
inline constexpr int kMaxQubits = 24;

using Amplitude = std::complex<double>;

/// A 2x2 unitary gate in row-major order: {u00, u01, u10, u11}.
struct Gate1 {
  Amplitude u00, u01, u10, u11;
};

struct StateVectorTestAccess;

namespace detail {

/// Spreads a packed pair index back into a basis index by inserting a 0 at
/// `bit_pos`: the k-th basis index whose `bit_pos` bit is clear. Gate
/// kernels enumerate pairs directly through this instead of scanning the
/// whole range and skipping half of it, so shard workloads are balanced.
/// Shared by every kernel that enumerates amplitude groups, so that they
/// all pair amplitudes identically.
inline std::size_t insert_zero_bit(std::size_t k, int bit_pos) {
  const std::size_t low_mask = (std::size_t{1} << bit_pos) - 1;
  return ((k >> bit_pos) << (bit_pos + 1)) | (k & low_mask);
}

}  // namespace detail

class StateVector {
 public:
  /// |0...0> on `qubit_count` qubits. Limited to kMaxQubits qubits. `pool`
  /// is a non-owning thread pool the amplitude kernels shard over; null
  /// (the default) runs every kernel serially. The caller keeps the pool
  /// alive for the lifetime of the StateVector (or until it is replaced
  /// via set_thread_pool).
  explicit StateVector(int qubit_count, util::ThreadPool* pool = nullptr);

  int qubit_count() const { return qubit_count_; }
  std::size_t dimension() const { return amplitudes_.size(); }

  /// Replaces the injected pool (non-owning; null = serial). Results never
  /// depend on the pool — only kernel wall time does.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }

  const std::vector<Amplitude>& amplitudes() const { return amplitudes_; }
  Amplitude amplitude(std::size_t basis) const;

  /// Applies a single-qubit gate.
  void apply(const Gate1& g, int qubit);

  /// Applies a single-qubit gate controlled on `control` being 1.
  /// Requires control != target.
  void apply_controlled(const Gate1& g, int control, int target);

  /// CNOT / CZ / SWAP conveniences. swap(a, a) is a no-op (a qubit always
  /// trivially swaps with itself); cnot/cz require distinct qubits.
  void cnot(int control, int target);
  void cz(int control, int target);
  void swap(int a, int b);

  /// Phase-flips every basis state whose index satisfies the predicate
  /// (a classical oracle: |x> -> (-1)^{f(x)} |x>). The predicate sees the
  /// full basis index and must be safe to call concurrently when a pool
  /// is injected (pure predicates are; all oracles in this repo are pure).
  template <typename Pred>
  void oracle_phase(Pred&& marked) {
    for_shards(amplitudes_.size(),
               [&](int, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   if (marked(i)) amplitudes_[i] = -amplitudes_[i];
                 }
               });
  }

  /// Grover's diffusion 2|s><s| - I, with |s> the uniform superposition:
  /// every amplitude a_i becomes 2·mean - a_i, mean = (sum_j a_j) / 2^n.
  /// Two passes: each shard of util::ShardPlan::over(dimension()) sums its
  /// range left to right into a shard-indexed slot, the slots are merged
  /// serially in shard order (fidelity's reduction contract, so the result
  /// is bit-identical for every pool), the total is scaled by the exact
  /// power-of-two 2 / 2^n, and a second pass rewrites every amplitude.
  /// Equals the Hadamard sandwich H^⊗n · oracle_phase(i != 0) · H^⊗n
  /// (that is, H^⊗n (2|0><0| - I) H^⊗n) up to rounding, in 2 passes
  /// instead of 2n + 1.
  void reflect_about_uniform();

  /// Probability of measuring `qubit` as 1.
  double probability_one(int qubit) const;

  /// Measures one qubit in the computational basis, collapsing the state.
  bool measure(int qubit, Rng& rng);

  /// Measures all qubits; returns the observed basis index. When
  /// floating-point rounding leaves residual measure mass after the scan
  /// (the drawn threshold lands beyond the accumulated total), the state
  /// collapses onto the highest-index basis state with nonzero
  /// probability — never onto a zero-amplitude one.
  std::size_t measure_all(Rng& rng);

  /// Probability of observing `basis` when measuring everything.
  double probability_of(std::size_t basis) const;

  /// Squared norm (should always be ~1; exposed for testing).
  double norm_squared() const;

  /// Fidelity |<this|other>|^2 with another state of the same dimension.
  double fidelity(const StateVector& other) const;

 private:
  friend struct StateVectorTestAccess;

  /// Executes body(shard, begin, end) over the injected pool (serial when
  /// none): the single dispatch point every kernel goes through. Shard
  /// geometry is util::ShardPlan::over(items) — a function of `items`
  /// alone, which is what makes results thread-count-invariant.
  void for_shards(
      std::size_t items,
      const std::function<void(int, std::size_t, std::size_t)>& body) const;

  /// Shard count for_shards(items, ...) will use; sizes the shard-indexed
  /// partial-reduction slots.
  int shard_count_for(std::size_t items) const;

  /// The one pair kernel behind apply (control < 0) and apply_controlled.
  /// Pair k couples basis index i0(k) with i0(k) | 2^target, where i0(k)
  /// is k with a zero inserted at the target position (and, given a
  /// control, one at the control position, whose bit is then set). Each
  /// run of 2^min(control, target) consecutive k maps to consecutive
  /// amplitudes; the kernel updates a run at a time, and a shard boundary
  /// may cut one.
  void apply_pairs(const Gate1& g, int target, int control);

  /// measure() with the uniform draw injected: collapses `qubit` to the
  /// branch selected by r < P(qubit = 1). Guards r against [0, 1) — a draw
  /// outside the uniform_real contract is caller error, not a model state —
  /// then forwards to the unchecked core. Tests probe the guard through
  /// quantum/testing.hpp.
  bool collapse_qubit(int qubit, double r);

  /// collapse_qubit without the r guard: accepts any draw, including ones
  /// outside [0, 1), which is the only way to force the zero-probability
  /// branch and its ModelError on a normalized state (see
  /// quantum/testing.hpp).
  bool collapse_qubit_unchecked(int qubit, double r);

  /// measure_all() with the uniform draw injected: scans the measure mass
  /// until it exceeds r, with the documented highest-nonzero fallback for
  /// rounding residue. Guards r against [0, 1) like collapse_qubit, then
  /// forwards to the unchecked core.
  std::size_t collapse_all(double r);

  /// collapse_all without the r guard: accepts any draw so tests can pin
  /// the rounding-residue fallback with r past the total measure mass (see
  /// quantum/testing.hpp).
  std::size_t collapse_all_unchecked(double r);

  int qubit_count_;
  std::vector<Amplitude> amplitudes_;
  util::ThreadPool* pool_ = nullptr;  // non-owning; null = serial
};

}  // namespace qdc::quantum
