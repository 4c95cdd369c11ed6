// Figure 3: time to alpha-approximate the MST as a function of the weight
// aspect ratio W, for fixed n and alpha.
//
// The paper's picture: the lower bound rises as ~W/alpha until
// W = Theta(alpha sqrt(n)), then flattens at ~sqrt(n); the deterministic
// upper bounds (Elkin's O(W/alpha) class-based algorithm and the
// Kutten-Peleg-style O~(sqrt(n)) exact algorithm) trace the same envelope.
//
// We measure both sides in the CONGEST simulator:
//  * "approx" = Elkin-style class-sequential Kruskal: weight classes of
//    width (alpha - 1) are processed one at a time (measured rounds grow
//    ~ linearly in the class count W / (alpha - 1));
//  * "exact"  = the pipelined Boruvka MST, flat in W;
//  * the winner's time is the measured envelope, printed against the
//    evaluated Theorem 3.8 lower bound. The crossover location
//    W* = alpha sqrt(n) is printed for comparison.
//
// Sweep-migrated: the weighted graphs are drawn serially with the legacy
// seed (11) in the historical aspect order; each W row then runs as one
// sweep job (its own Network, so set_subnetwork never crosses jobs) and
// rows print in job-index order — stdout is byte-identical to the
// pre-harness bench at every --sweep-threads value.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/bounds.hpp"
#include "dist/mst.hpp"
#include "dist/tree.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace {

using namespace qdc;

/// Elkin-style class-sequential approximate MST: classes of width
/// `width` are enabled one by one; each pass merges what the enabled
/// class prefix allows. The final pass's forest is the bucketed
/// (1 + width)-approximate MST.
dist::MstRunResult run_class_sequential(congest::Network& net,
                                        const dist::BfsTreeResult& tree,
                                        const graph::WeightedGraph& g,
                                        double width, int* total_rounds) {
  const int classes = std::max(
      1, static_cast<int>(std::ceil((g.aspect_ratio() - 1.0) / width)) + 1);
  dist::MstRunResult merged;
  std::vector<std::int64_t> labels;  // warm start across classes
  std::set<graph::EdgeId> forest;
  *total_rounds = 0;
  for (int c = 0; c < classes; ++c) {
    graph::EdgeSubset enabled(g.edge_count());
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      if (g.weight(e) <= 1.0 + width * (c + 1)) enabled.insert(e);
    }
    net.set_subnetwork(enabled);
    dist::MstOptions opt;
    opt.restrict_to_subnetwork = true;
    opt.bucket_width = width;
    opt.min_weight = 1.0;
    opt.phase1_target = 1;  // pipelined variant keeps per-class cost low
    opt.initial_component = labels;
    const auto pass = dist::run_mst(net, tree, opt);
    *total_rounds += pass.stats.rounds;
    labels = pass.component;
    forest.insert(pass.tree_edges.begin(), pass.tree_edges.end());
    merged = pass;
  }
  net.clear_subnetwork();
  merged.tree_edges.assign(forest.begin(), forest.end());
  merged.weight = 0.0;
  for (graph::EdgeId e : merged.tree_edges) merged.weight += g.weight(e);
  return merged;
}

void run_sweep(bench::SweepHarness& harness, int n, double alpha) {
  Rng rng(11);
  std::printf(
      "=== Figure 3: T(n=%d, W) for alpha=%.1f (B = 8 fields/round) ===\n",
      n, alpha);
  std::printf("%10s %14s %13s %14s %16s %12s\n", "W", "approx-rounds",
              "exact-rounds", "envelope(min)", "lower-bound", "approx-ok");
  const double crossover = core::figure3_crossover_aspect(n, alpha);
  const double max_aspect = 10.0 * crossover;
  struct RowInput {
    double aspect = 0.0;
    graph::WeightedGraph g;
  };
  std::vector<RowInput> inputs;
  for (double aspect = 2.0; aspect <= max_aspect; aspect *= 2.0) {
    RowInput input;
    input.aspect = aspect;
    input.g = graph::random_weighted_aspect(n, 6.0 / n, aspect, rng);
    inputs.push_back(std::move(input));
  }
  const std::vector<std::string> rows = harness.sweep<std::string>(
      "aspect_rows", static_cast<int>(inputs.size()),
      [&](const util::SweepJob& job) {
        const RowInput& input = inputs[static_cast<std::size_t>(job.index)];
        const graph::WeightedGraph& g = input.g;
        congest::Network net(g, congest::NetworkConfig{.bandwidth = 8});
        const auto tree = dist::build_bfs_tree(net, 0);

        int approx_rounds = 0;
        const auto approx =
            run_class_sequential(net, tree, g, alpha - 1.0, &approx_rounds);

        dist::MstOptions exact_opt;
        exact_opt.phase1_target = 1;
        const auto exact = dist::run_mst(net, tree, exact_opt);

        const double optimum = graph::mst_weight(g);
        const double lb = core::optimization_lower_bound(
            n, core::fields_to_bits(8, n), input.aspect, alpha);
        const bool ok = approx.weight <= alpha * optimum + 1e-6 &&
                        approx.weight >= optimum - 1e-6;
        return bench::strprintf("%10.0f %14d %13d %14d %16.1f %12s\n",
                                input.aspect, approx_rounds,
                                exact.stats.rounds,
                                std::min(approx_rounds, exact.stats.rounds),
                                lb, ok ? "yes" : "NO");
      });
  for (const std::string& row : rows) std::fputs(row.c_str(), stdout);
  std::printf("crossover W* = alpha*sqrt(n) = %.0f: the envelope flattens "
              "once W exceeds it (paper Figure 3)\n\n",
              crossover);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qdc;
  bench::HarnessOptions options = bench::parse_harness_flags(argc, argv);
  bench::SweepHarness harness("bench_fig3_mst_tradeoff", options);
  run_sweep(harness, /*n=*/196, /*alpha=*/2.0);
  return 0;
}
