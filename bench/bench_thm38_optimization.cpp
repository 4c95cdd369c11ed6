// Theorem 3.8 / Corollary 3.9: optimization lower bounds
// Omega(min(W/alpha, sqrt(n)) / sqrt(B log n)) vs measured upper bounds
// over an (n, W, alpha) grid - approximate MST (bucketed), exact MST, SSSP
// (Bellman-Ford) and the sampling min-cut estimator.
//
// Sweep-migrated: the weighted graphs are drawn serially with the legacy
// seed (83) in the historical (n, W, alpha) grid order, each grid point
// then runs as one sweep job and rows print in job-index order — stdout is
// byte-identical to the pre-harness bench at every --sweep-threads value.
#include <cstdio>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/bounds.hpp"
#include "dist/mst.hpp"
#include "dist/sssp.hpp"
#include "dist/tree.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/mincut.hpp"
#include "graph/mst.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::HarnessOptions options = bench::parse_harness_flags(argc, argv);
  bench::SweepHarness harness("bench_thm38_optimization", options);
  Rng rng(83);

  std::printf("=== Theorem 3.8 / Corollary 3.9: optimization bounds ===\n\n");
  std::printf("%5s %7s %6s | %9s %11s %9s | %9s %10s\n", "n", "W", "alpha",
              "LB", "approx-MST", "exact-MST", "approx-ok", "LB<=UB?");
  const std::vector<int> sizes = {64, 144, 256};
  struct GridInput {
    int n = 0;
    double aspect = 0.0;
    double alpha = 0.0;
    graph::WeightedGraph g;
  };
  std::vector<GridInput> grid_inputs;
  for (const int n : sizes) {
    for (const double aspect : {8.0, 64.0, 512.0}) {
      for (const double alpha : {1.5, 4.0}) {
        GridInput input;
        input.n = n;
        input.aspect = aspect;
        input.alpha = alpha;
        input.g = graph::random_weighted_aspect(n, 6.0 / n, aspect, rng);
        grid_inputs.push_back(std::move(input));
      }
    }
  }
  const std::vector<std::string> grid_rows = harness.sweep<std::string>(
      "mst_grid", static_cast<int>(grid_inputs.size()),
      [&](const util::SweepJob& job) {
        const GridInput& input =
            grid_inputs[static_cast<std::size_t>(job.index)];
        const int n = input.n;
        const double aspect = input.aspect;
        const double alpha = input.alpha;
        const graph::WeightedGraph& g = input.g;
        congest::Network net(g, congest::NetworkConfig{.bandwidth = 8});
        const auto tree = dist::build_bfs_tree(net, 0);

        dist::MstOptions approx_opt;
        approx_opt.bucket_width = alpha - 1.0;
        approx_opt.min_weight = 1.0;
        approx_opt.phase1_target = 1;
        const auto approx = dist::run_mst(net, tree, approx_opt);

        dist::MstOptions exact_opt;
        exact_opt.phase1_target = 1;
        const auto exact = dist::run_mst(net, tree, exact_opt);

        const double optimum = graph::mst_weight(g);
        const double lb = core::optimization_lower_bound(
            n, core::fields_to_bits(8, n), aspect, alpha);
        const bool ok = approx.weight <= alpha * optimum + 1e-6;
        return bench::strprintf(
            "%5d %7.0f %6.1f | %9.1f %11d %9d | %9s %10s\n", n, aspect,
            alpha, lb, approx.stats.rounds, exact.stats.rounds,
            ok ? "yes" : "NO",
            lb <= std::min(approx.stats.rounds, exact.stats.rounds) ? "yes"
                                                                    : "NO");
      });
  for (const std::string& row : grid_rows) std::fputs(row.c_str(), stdout);

  std::printf("\nother Corollary 3.9 problems (measured upper bounds):\n");
  std::printf("%5s | %12s %14s %14s %12s\n", "n", "SSSP(BF)", "s-t dist",
              "min-cut est", "cut factor");
  const std::vector<int> other_sizes = {48, 96};
  struct OtherInput {
    int n = 0;
    graph::Graph topo;
    graph::WeightedGraph g;
  };
  std::vector<OtherInput> other_inputs;
  for (const int n : other_sizes) {
    OtherInput input;
    input.n = n;
    input.topo = graph::random_connected(n, 8.0 / n, rng);
    input.g = graph::randomly_weighted(input.topo, 1.0, 9.0, rng);
    other_inputs.push_back(std::move(input));
  }
  const std::vector<std::string> other_rows = harness.sweep<std::string>(
      "other_problems", static_cast<int>(other_inputs.size()),
      [&](const util::SweepJob& job) {
        const OtherInput& input =
            other_inputs[static_cast<std::size_t>(job.index)];
        const int n = input.n;
        congest::Network net(input.g, congest::NetworkConfig{.bandwidth = 8});
        const auto tree = dist::build_bfs_tree(net, 0);
        const auto sssp = dist::run_bellman_ford(net, 0);
        const auto est = dist::estimate_min_cut(net, tree, 3);
        const int true_cut = graph::edge_connectivity(input.topo);
        return bench::strprintf(
            "%5d | %12d %14d %14d %9.2fx (true %d)\n", n, sssp.stats.rounds,
            sssp.stats.rounds, est.rounds,
            true_cut > 0 ? est.estimate / true_cut : 0.0, true_cut);
      });
  for (const std::string& row : other_rows) std::fputs(row.c_str(), stdout);
  std::printf("\n(the paper's message: these upper bounds cannot be pushed "
              "below the lower envelope even with quantum links and "
              "arbitrary entanglement)\n");

  return 0;
}
