// Grover search, simulated exactly.
//
// This powers the quantum Disjointness protocol of the paper's Example 1.1:
// the quantum players Grover-search for an index i with x_i = y_i = 1. The
// [AA05] protocol the paper cites runs each oracle query through the
// network (costing Theta(D) rounds); src/core/disjointness.hpp does that
// accounting while this file provides the actual quantum search.
#pragma once

#include <functional>

#include "util/rng.hpp"

namespace qdc::util {
class ThreadPool;
}  // namespace qdc::util

namespace qdc::quantum {

struct GroverResult {
  std::size_t found = 0;           ///< measured index
  bool is_marked = false;          ///< whether `found` satisfies the oracle
  int iterations = 0;              ///< Grover iterations performed
  int oracle_queries = 0;          ///< == iterations
  double success_probability = 0;  ///< mass on marked items pre-measurement
};

/// Searches {0,1}^num_qubits for a marked item. `iterations` < 0 selects
/// the optimal count floor(pi/4 * sqrt(N/M)) (or the M=1 count when no
/// item is marked, mirroring a player who does not know M). num_qubits is
/// capped at kMaxQubits — the same limit as the StateVector the search
/// runs on. `pool` (non-owning; null = serial) shards the statevector
/// kernels and the oracle/probability scans; results are bit-identical
/// for every pool (see state.hpp). `marked` is called 2^num_qubits + 1
/// times, whatever the iteration count: once per index into a mask the
/// iterations read, and once on the measured index. After one Hadamard
/// layer (num_qubits passes, once per search), each iteration is 3
/// full-state passes: the oracle reads the mask and phase-flips, then
/// StateVector::reflect_about_uniform sums the amplitudes and rewrites
/// them.
GroverResult grover_search(int num_qubits,
                           const std::function<bool(std::size_t)>& marked,
                           Rng& rng, int iterations = -1,
                           util::ThreadPool* pool = nullptr);

/// Optimal iteration count for N items of which M are marked (M >= 1).
int grover_optimal_iterations(std::size_t n_items, std::size_t n_marked);

}  // namespace qdc::quantum
