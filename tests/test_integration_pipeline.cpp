// End-to-end integration tests mirroring the paper's Figure 1 pipeline and
// the cross-module seams the benches exercise: gadget instances flowing
// into distributed verification, server-model instances embedded into
// N(Gamma, L), and the verification-exceeds-schedule consistency statement
// behind Theorems 3.5/3.6.
#include <gtest/gtest.h>

#include <memory>

#include "comm/problems.hpp"
#include "congest/network.hpp"
#include "core/lb_topology.hpp"
#include "dist/tree.hpp"
#include "dist/verify.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace qdc {
namespace {

// The Section 7 gadget graph, handed to the *distributed* Hamiltonian-cycle
// verifier as a subnetwork instance: the full gadget graph is the
// subnetwork M, the topology additionally carries a low-diameter scaffold
// (star chords) so the CONGEST algorithms have a fast coordination
// backbone. Distributed verification must agree with the arithmetic truth.
TEST(Pipeline, GadgetInstancesThroughDistributedVerification) {
  Rng rng(7);
  for (int t = 0; t < 6; ++t) {
    const auto inst = comm::random_ip_mod3_promise(3, rng);  // 12-bit inputs
    const auto owned = gadgets::build_ip_mod3_ham_graph(inst.x, inst.y);

    // Topology: gadget edges + a hub scaffold keeping the diameter small.
    graph::Graph topo(owned.g.node_count());
    graph::EdgeSubset m(owned.g.edge_count() + owned.g.node_count() - 1);
    for (const auto& e : owned.g.edges()) {
      m.insert(topo.add_edge(e.u, e.v));
    }
    for (graph::NodeId v = 1; v < topo.node_count(); ++v) {
      topo.add_edge(0, v);  // scaffold, not in M
    }
    graph::EdgeSubset m_resized(topo.edge_count());
    for (graph::EdgeId e : m.to_vector()) m_resized.insert(e);

    congest::Network net(topo, congest::NetworkConfig{.bandwidth = 8});
    const auto tree = dist::build_bfs_tree(net, 0);
    const auto verdict =
        dist::verify_hamiltonian_cycle(net, tree, m_resized);
    EXPECT_EQ(verdict.accepted, !comm::ip_mod3_is_zero(inst.x, inst.y))
        << "x=" << inst.x.to_string() << " y=" << inst.y.to_string();
  }
}

// Server-model matchings embedded into N(Gamma, L) and decided by the
// distributed verifier: the Observation 8.1 correspondence, checked
// through the actual distributed algorithm rather than sequentially.
TEST(Pipeline, EmbeddedMatchingsThroughDistributedVerification) {
  Rng rng(11);
  const auto lb = std::make_shared<const core::LbTopologyView>(4, 17);
  // lines = 4 + 4 = 8
  const int lines = lb->line_count();
  ASSERT_EQ(lines % 2, 0);
  congest::Network net(lb, congest::NetworkConfig{.bandwidth = 8});
  const auto tree = dist::build_bfs_tree(net, lb->path_node(0, 1));
  int hams = 0;
  for (int t = 0; t < 8; ++t) {
    const auto ec = graph::random_perfect_matching(lines, rng);
    const auto ed = graph::random_perfect_matching(lines, rng);
    const auto m = lb->embed_matchings(ec, ed);
    graph::Graph g(lines);
    for (const auto& e : ec) g.add_edge(e.u, e.v);
    for (const auto& e : ed) g.add_edge(e.u, e.v);

    const auto verdict = dist::verify_hamiltonian_cycle(net, tree, m);
    EXPECT_EQ(verdict.accepted, graph::is_hamiltonian_cycle(g));
    hams += verdict.accepted ? 1 : 0;
  }
  // Both verdicts should occur over 8 random instances with high
  // probability; tolerate the unlucky case by only checking agreement
  // above (already done) plus at least one negative.
  EXPECT_LT(hams, 8);
}

// The Eq gadget through the distributed verifier decides Equality.
TEST(Pipeline, EqualityDecidedDistributedly) {
  Rng rng(13);
  for (int t = 0; t < 6; ++t) {
    const auto x = BitString::random(5, rng);
    const auto y = t % 2 == 0 ? x : BitString::random(5, rng);
    const auto owned = gadgets::build_eq_ham_graph(x, y);
    graph::Graph topo(owned.g.node_count());
    std::vector<graph::EdgeId> m_edges;
    for (const auto& e : owned.g.edges()) {
      m_edges.push_back(topo.add_edge(e.u, e.v));
    }
    for (graph::NodeId v = 1; v < topo.node_count(); ++v) {
      topo.add_edge(0, v);
    }
    congest::Network net(topo, congest::NetworkConfig{.bandwidth = 8});
    const auto tree = dist::build_bfs_tree(net, 0);
    const auto verdict = dist::verify_hamiltonian_cycle(
        net, tree, graph::EdgeSubset::of(topo.edge_count(), m_edges));
    EXPECT_EQ(verdict.accepted, x == y);
  }
}

}  // namespace
}  // namespace qdc
