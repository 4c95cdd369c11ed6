#include "quantum/grover.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "quantum/gates.hpp"
#include "quantum/state.hpp"
#include "util/expect.hpp"
#include "util/shard.hpp"

namespace qdc::quantum {

int grover_optimal_iterations(std::size_t n_items, std::size_t n_marked) {
  QDC_EXPECT(n_marked >= 1 && n_marked <= n_items,
             "grover_optimal_iterations: bad marked count");
  const double theta =
      std::asin(std::sqrt(static_cast<double>(n_marked) /
                          static_cast<double>(n_items)));
  // (2k+1) * theta ~= pi/2  =>  k ~= pi/(4 theta) - 1/2.
  const int k = static_cast<int>(std::floor(
      std::numbers::pi / (4.0 * theta)));
  return std::max(0, k);
}

GroverResult grover_search(int num_qubits,
                           const std::function<bool(std::size_t)>& marked,
                           Rng& rng, int iterations,
                           util::ThreadPool* pool) {
  QDC_EXPECT(num_qubits >= 1 && num_qubits <= kMaxQubits,
             "grover_search: qubit count out of range");
  const std::size_t n = std::size_t{1} << num_qubits;
  const util::ShardPlan scan_plan = util::ShardPlan::over(n);

  // The one pass that calls the predicate: it fills the mask the oracle
  // and the success-probability scan read (each shard writes only its own
  // range) and counts marked items with shard-indexed tallies merged in
  // shard order — integer sums are order-free, but keeping the scan on the
  // same contract as the floating-point reductions costs nothing.
  std::vector<std::uint8_t> mask(n, 0);
  std::vector<std::uint64_t> marked_partial(
      static_cast<std::size_t>(scan_plan.shards), 0);
  util::run_sharded(pool, scan_plan,
                    [&](int s, std::size_t begin, std::size_t end) {
                      std::uint64_t count = 0;
                      for (std::size_t i = begin; i < end; ++i) {
                        if (marked(i)) {
                          mask[i] = 1;
                          ++count;
                        }
                      }
                      marked_partial[static_cast<std::size_t>(s)] = count;
                    });
  const auto in_mask = [&mask](std::size_t i) { return mask[i] != 0; };
  std::size_t m = 0;
  for (const std::uint64_t c : marked_partial) m += c;
  if (iterations < 0) {
    iterations = grover_optimal_iterations(n, std::max<std::size_t>(1, m));
  }

  StateVector state(num_qubits, pool);
  for (int q = 0; q < num_qubits; ++q) state.apply(hadamard(), q);
  for (int it = 0; it < iterations; ++it) {
    // Oracle: phase-flip marked items.
    state.oracle_phase(in_mask);
    // Diffusion: reflect about the uniform superposition.
    state.reflect_about_uniform();
  }

  GroverResult result;
  result.iterations = iterations;
  result.oracle_queries = iterations;
  // Success probability: per-shard partial sums, merged serially in shard
  // order (bit-identical for every pool; exactly the serial left-to-right
  // sum when n fits in one shard).
  std::vector<double> prob_partial(
      static_cast<std::size_t>(scan_plan.shards), 0.0);
  util::run_sharded(pool, scan_plan,
                    [&](int s, std::size_t begin, std::size_t end) {
                      double sum = 0.0;
                      for (std::size_t i = begin; i < end; ++i) {
                        if (in_mask(i)) sum += state.probability_of(i);
                      }
                      prob_partial[static_cast<std::size_t>(s)] = sum;
                    });
  for (const double p : prob_partial) result.success_probability += p;
  result.found = state.measure_all(rng);
  result.is_marked = marked(result.found);
  return result;
}

}  // namespace qdc::quantum
