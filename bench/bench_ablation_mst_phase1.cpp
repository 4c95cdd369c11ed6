// Ablation: controlled-GHS phase 1 vs pure pipelined Boruvka.
//
// The two-phase algorithm is the asymptotically right construction
// (O~(sqrt(n) + D), the Figure 3 upper bound); the pure pipelined variant
// is O(n/B + D log n) but with far smaller constants. This bench
// quantifies the trade across n and phase-1 target sizes s - the design
// decision DESIGN.md calls out (run_components defaults to the pipelined
// variant for exactly this reason).
#include <cstdio>

#include "congest/network.hpp"
#include "dist/mst.hpp"
#include "dist/tree.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/mst.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(3);

  std::printf("=== Ablation: MST phase-1 target size s ===\n\n");
  std::printf("%6s %6s | %12s %12s %12s %12s | %8s\n", "n", "D",
              "s=1 (pipe)", "s=sqrt(n)", "s=2sqrt(n)", "s=4", "correct");
  for (const int n : {64, 144, 256, 400}) {
    const auto topo = graph::random_connected(n, 6.0 / n, rng);
    const auto g = graph::randomly_weighted(topo, 1.0, 50.0, rng);
    congest::Network net(g, congest::NetworkConfig{.bandwidth = 8});
    const auto tree = dist::build_bfs_tree(net, 0);
    const double truth = graph::mst_weight(g);

    const int sqrt_n = static_cast<int>(std::ceil(std::sqrt(double(n))));
    int rounds[4];
    bool correct = true;
    const int targets[4] = {1, sqrt_n, 2 * sqrt_n, 4};
    for (int i = 0; i < 4; ++i) {
      dist::MstOptions opt;
      opt.phase1_target = targets[i];
      const auto r = dist::run_mst(net, tree, opt);
      rounds[i] = r.stats.rounds;
      correct = correct && std::abs(r.weight - truth) < 1e-6;
    }
    std::printf("%6d %6d | %12d %12d %12d %12d | %8s\n", n,
                graph::diameter(topo), rounds[0], rounds[1], rounds[2],
                rounds[3], correct ? "yes" : "NO");
  }
  std::printf("\n(phase 1 pays only once n is large enough that sqrt(n) "
              "log^2 n << n/B; at laptop scales the pipelined variant "
              "dominates, so component-based verifiers use it)\n");

  return 0;
}
