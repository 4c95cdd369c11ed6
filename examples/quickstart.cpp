// Quickstart: build a CONGEST network, compute a distributed MST, and
// verify a subnetwork property - the three core moves of the library.
//
//   $ ./quickstart [n] [seed]       (n in 4..1024, seed in 0..4294967295)
#include <cstdio>
#include <cstdlib>

#include "args.hpp"
#include "dist/mst.hpp"
#include "dist/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/mst.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  const examples::Args args(argc, argv, 2,
                            "quickstart [n: 4..1024] [seed: 0..4294967295]");
  const int n = static_cast<int>(args.integer(1, 4, 1024, 64));
  const auto seed = static_cast<unsigned>(args.integer(2, 0, 4294967295, 1));
  Rng rng(seed);

  // 1. A random connected weighted network with n processors, B = 8 fields
  //    (~ 8 log n bits) per edge per round.
  const auto topo = graph::random_connected(n, 4.0 / n, rng);
  const auto weighted = graph::randomly_weighted(topo, 1.0, 100.0, rng);
  congest::Network net(weighted, congest::NetworkConfig{.bandwidth = 8});
  std::printf("network: n=%d, m=%d, diameter=%d\n", topo.node_count(),
              topo.edge_count(), graph::diameter(topo));

  // 2. Build the global BFS tree every sqrt(n)-style algorithm hangs off.
  const auto tree = dist::build_bfs_tree(net, 0);
  std::printf("bfs tree: height=%d, built in %d rounds\n", tree.height,
              tree.stats.rounds);

  // 3. Distributed MST (controlled-GHS + pipelined Boruvka).
  const auto mst = dist::run_mst(net, tree, dist::MstOptions{});
  std::printf("distributed MST: weight=%.2f in %d rounds (%lld messages)\n",
              mst.weight, mst.stats.rounds,
              static_cast<long long>(mst.stats.messages));
  std::printf("sequential Kruskal agrees: %s\n",
              std::abs(mst.weight - graph::mst_weight(weighted)) < 1e-9
                  ? "yes"
                  : "NO (bug!)");

  // 4. Verify the computed tree as a subnetwork property (Section 2.2).
  const auto m =
      graph::EdgeSubset::of(topo.edge_count(), mst.tree_edges);
  const auto verdict = dist::verify_spanning_tree(net, tree, m);
  std::printf("spanning-tree verification: %s in %d rounds\n",
              verdict.accepted ? "accepted" : "rejected", verdict.rounds);
  return verdict.accepted ? 0 : 1;
}
