// Tour of the lower-bound machinery: builds the hard network N(Gamma, L)
// of Section 8, verifies its structural properties, embeds a server-model
// Hamiltonian-cycle instance, runs a real algorithm under the three-party
// Simulation Theorem harness, and evaluates the resulting bounds.
//
//   $ ./lower_bound_explorer [gamma] [L]  (gamma in 1..16, L in 129..257)
//
// L is rounded up to 2^k + 1. Below 129 the BFS run outlasts the L/2 - 2
// rounds the Simulation Theorem can simulate.
#include <cstdio>
#include <memory>

#include "args.hpp"
#include "congest/topology.hpp"
#include "core/bounds.hpp"
#include "core/lb_topology.hpp"
#include "core/simulation.hpp"
#include "dist/tree.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  const examples::Args args(
      argc, argv, 2, "lower_bound_explorer [gamma: 1..16] [L: 129..257]");
  const int gamma = static_cast<int>(args.integer(1, 1, 16, 4));
  const int length = static_cast<int>(args.integer(2, 129, 257, 129));

  const auto lb = std::make_shared<const core::LbTopologyView>(gamma, length);
  const graph::Graph topology = congest::materialize(*lb);
  const int n = lb->node_count();
  std::printf("N(Gamma=%d, L=%d): %d nodes, %d edges, %d highways\n",
              lb->gamma(), lb->length(), n, lb->edge_count(),
              lb->highway_count());
  std::printf("diameter = %d (Theta(log L): log2(L-1) = %d)\n",
              graph::diameter(topology), lb->highway_count());

  // Embed a random server-model Ham instance (Observation 8.1).
  Rng rng(3);
  const int lines = lb->line_count();
  if (lines % 2 == 0) {
    const auto ec = graph::random_perfect_matching(lines, rng);
    const auto ed = graph::random_perfect_matching(lines, rng);
    const auto m = lb->embed_matchings(ec, ed);
    const auto sub = graph::subgraph(topology, m);
    graph::Graph g(lines);
    for (const auto& e : ec) g.add_edge(e.u, e.v);
    for (const auto& e : ed) g.add_edge(e.u, e.v);
    std::printf(
        "embedding: G has %d cycles over %d lines; M has %d cycles "
        "(Observation 8.1: %s)\n",
        graph::cycle_count_degree_two(g), lines,
        graph::cycle_count_degree_two(sub),
        graph::cycle_count_degree_two(g) ==
                graph::cycle_count_degree_two(sub)
            ? "match"
            : "MISMATCH");
  }

  // Run BFS-tree construction under the three-party harness.
  congest::Network net(lb, congest::NetworkConfig{.bandwidth = 8});
  const auto tree =
      dist::build_bfs_tree(net, lb->path_node(0, 1), {.record_trace = true});
  const auto acc = core::account_three_party_cost(*lb, net);
  std::printf(
      "simulation harness over %d rounds: Carol %lld + David %lld charged "
      "fields (max %lld per round, bound 6kB = %lld); only highway edges "
      "charged: %s\n",
      acc.rounds, static_cast<long long>(acc.carol_fields),
      static_cast<long long>(acc.david_fields),
      static_cast<long long>(acc.max_charged_per_round),
      static_cast<long long>(acc.per_round_bound),
      acc.only_highway_edges_charged ? "yes" : "NO");

  // Evaluate the paper's bounds for this n.
  const double bits = core::fields_to_bits(8, n);
  std::printf(
      "Theorem 3.6 verification lower bound at n=%d, B=%.0f bits: %.1f "
      "rounds\n",
      n, bits, core::verification_lower_bound(n, bits));
  const auto params = core::theorem35_parameters(n, bits);
  std::printf(
      "Theorem 3.5 parameters for this n: L ~ %d, Gamma ~ %d (Gamma*L ~ "
      "%d)\n",
      params.length, params.gamma, params.length * params.gamma);
  return 0;
}
