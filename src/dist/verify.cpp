#include "dist/verify.hpp"

#include <limits>

#include "congest/stats.hpp"
#include "dist/mst.hpp"
#include "util/expect.hpp"

namespace qdc::dist {

namespace {

void accumulate(VerifyResult& acc, const congest::RunStats& stats) {
  acc.rounds += stats.rounds;
  acc.messages += stats.messages;
}

/// Facts derivable from one components run plus one aggregation pass.
/// All contributions are node-local: a node knows its incident M-edges and
/// its own final component label.
struct ComponentFacts {
  std::int64_t leaders = 0;          // number of M-components
  std::int64_t edges_in_m = 0;       // |E(M)|
  std::int64_t degree_one = 0;       // nodes of M-degree exactly 1
  bool all_deg_le2 = false;
  bool all_deg_ge1 = false;
  bool all_deg_eq2 = false;
  std::int64_t touched_leaders = 0;  // components containing an edge
  MstRunResult components;
};

std::vector<int> m_degrees(const Network& net, const graph::EdgeSubset& m) {
  std::vector<int> deg(static_cast<std::size_t>(net.node_count()), 0);
  for (graph::EdgeId e : m.to_vector()) {
    const graph::Edge edge = net.view().edge(e);
    ++deg[static_cast<std::size_t>(edge.u)];
    ++deg[static_cast<std::size_t>(edge.v)];
  }
  return deg;
}

ComponentFacts component_facts(Network& net, const BfsTreeResult& tree,
                               const graph::EdgeSubset& m,
                               VerifyResult& acc) {
  net.set_subnetwork(m);
  ComponentFacts facts;
  facts.components = run_components(net, tree, /*restrict=*/true);
  accumulate(acc, facts.components.stats);

  const auto deg = m_degrees(net, m);
  std::vector<Payload> contrib;
  contrib.reserve(static_cast<std::size_t>(net.node_count()));
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const bool leader =
        facts.components.component[static_cast<std::size_t>(u)] == u;
    const int d = deg[static_cast<std::size_t>(u)];
    contrib.push_back({leader ? 1 : 0, d, d == 1 ? 1 : 0, d <= 2 ? 1 : 0,
                       d >= 1 ? 1 : 0, d == 2 ? 1 : 0,
                       (leader && d >= 1) ? 1 : 0});
  }
  const auto agg = run_aggregate(
      net, tree,
      {Combiner::kSum, Combiner::kSum, Combiner::kSum, Combiner::kAnd,
       Combiner::kAnd, Combiner::kAnd, Combiner::kSum},
      contrib);
  accumulate(acc, agg.stats);
  facts.leaders = agg.values[0];
  facts.edges_in_m = agg.values[1] / 2;
  facts.degree_one = agg.values[2];
  facts.all_deg_le2 = agg.values[3] != 0;
  facts.all_deg_ge1 = agg.values[4] != 0;
  facts.all_deg_eq2 = agg.values[5] != 0;
  facts.touched_leaders = agg.values[6];
  return facts;
}

graph::EdgeSubset complement_of(const Network& net,
                                const graph::EdgeSubset& m) {
  graph::EdgeSubset c = graph::EdgeSubset::all(net.view().edge_count());
  for (graph::EdgeId e : m.to_vector()) c.erase(e);
  return c;
}

/// One aggregation comparing the component labels of two nodes: returns
/// true iff x and y carry the same label.
bool labels_equal(Network& net, const BfsTreeResult& tree,
                  const MstRunResult& comp, NodeId x, NodeId y,
                  VerifyResult& acc) {
  constexpr std::int64_t kHi = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  std::vector<Payload> contrib(static_cast<std::size_t>(net.node_count()),
                               Payload{kHi, kLo});
  contrib[static_cast<std::size_t>(x)] = {
      comp.component[static_cast<std::size_t>(x)],
      comp.component[static_cast<std::size_t>(x)]};
  contrib[static_cast<std::size_t>(y)] = {
      comp.component[static_cast<std::size_t>(y)],
      comp.component[static_cast<std::size_t>(y)]};
  const auto agg = run_aggregate(net, tree, {Combiner::kMin, Combiner::kMax},
                                 contrib);
  accumulate(acc, agg.stats);
  return agg.values[0] == agg.values[1];
}

}  // namespace

VerifyResult verify_connectivity(Network& net, const BfsTreeResult& tree,
                                 const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  result.accepted = facts.leaders == 1;
  return result;
}

VerifyResult verify_spanning_connected_subgraph(Network& net,
                                                const BfsTreeResult& tree,
                                                const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  result.accepted =
      facts.leaders == 1 && (net.node_count() == 1 || facts.all_deg_ge1);
  return result;
}

VerifyResult verify_spanning_tree(Network& net, const BfsTreeResult& tree,
                                  const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  result.accepted =
      facts.leaders == 1 && facts.edges_in_m == net.node_count() - 1;
  return result;
}

VerifyResult verify_hamiltonian_cycle(Network& net, const BfsTreeResult& tree,
                                      const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  result.accepted =
      net.node_count() >= 3 && facts.all_deg_eq2 && facts.leaders == 1;
  return result;
}

VerifyResult verify_simple_path(Network& net, const BfsTreeResult& tree,
                                const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  const std::int64_t touched =
      net.node_count() - (facts.leaders - facts.touched_leaders);
  const bool acyclic = facts.edges_in_m == touched - facts.touched_leaders;
  result.accepted = facts.all_deg_le2 && facts.degree_one == 2 && acyclic &&
                    facts.touched_leaders == 1;
  return result;
}

VerifyResult verify_cycle_containment(Network& net, const BfsTreeResult& tree,
                                      const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  result.accepted = facts.edges_in_m > net.node_count() - facts.leaders;
  return result;
}

VerifyResult verify_e_cycle_containment(Network& net,
                                        const BfsTreeResult& tree,
                                        const graph::EdgeSubset& m,
                                        graph::EdgeId e) {
  QDC_EXPECT(m.contains(e), "verify_e_cycle_containment: e not in M");
  VerifyResult result;
  graph::EdgeSubset without = m;
  without.erase(e);
  const auto facts = component_facts(net, tree, without, result);
  const graph::Edge edge = net.view().edge(e);
  result.accepted =
      labels_equal(net, tree, facts.components, edge.u, edge.v, result);
  net.set_subnetwork(m);
  return result;
}

VerifyResult verify_st_connectivity(Network& net, const BfsTreeResult& tree,
                                    const graph::EdgeSubset& m, NodeId s,
                                    NodeId t) {
  QDC_EXPECT(s >= 0 && s < net.node_count() && t >= 0 && t < net.node_count(),
             "verify_st_connectivity: s/t out of range");
  VerifyResult result;
  const auto facts = component_facts(net, tree, m, result);
  result.accepted = labels_equal(net, tree, facts.components, s, t, result);
  net.set_subnetwork(m);
  return result;
}

VerifyResult verify_cut(Network& net, const BfsTreeResult& tree,
                        const graph::EdgeSubset& m) {
  VerifyResult result;
  const auto facts = component_facts(net, tree, complement_of(net, m), result);
  result.accepted = facts.leaders > 1;
  net.set_subnetwork(m);
  return result;
}

VerifyResult verify_st_cut(Network& net, const BfsTreeResult& tree,
                           const graph::EdgeSubset& m, NodeId s, NodeId t) {
  QDC_EXPECT(s >= 0 && s < net.node_count() && t >= 0 && t < net.node_count(),
             "verify_st_cut: s/t out of range");
  VerifyResult result;
  const auto facts = component_facts(net, tree, complement_of(net, m), result);
  result.accepted =
      !labels_equal(net, tree, facts.components, s, t, result);
  net.set_subnetwork(m);
  return result;
}

VerifyResult verify_edge_on_all_paths(Network& net, const BfsTreeResult& tree,
                                      const graph::EdgeSubset& m, NodeId u,
                                      NodeId v, graph::EdgeId e) {
  QDC_EXPECT(m.contains(e), "verify_edge_on_all_paths: e not in M");
  QDC_EXPECT(u >= 0 && u < net.node_count() && v >= 0 && v < net.node_count(),
             "verify_edge_on_all_paths: u/v out of range");
  VerifyResult result;
  graph::EdgeSubset without = m;
  without.erase(e);
  const auto facts = component_facts(net, tree, without, result);
  result.accepted = !labels_equal(net, tree, facts.components, u, v, result);
  net.set_subnetwork(m);
  return result;
}

VerifyResult verify_bipartiteness(Network& net, const BfsTreeResult& tree,
                                  const graph::EdgeSubset& m) {
  // Bipartite double cover: copies u and u+n; every original edge (u, v)
  // becomes the pair (u, v+n), (u+n, v). One extra cross edge (0, n) keeps
  // the cover network connected regardless of N's bipartiteness; it is not
  // part of the covered subnetwork. Each original node simulates its two
  // copies, so running on the explicit 2n-node network preserves the round
  // complexity (messages for both copies share the physical edge, a
  // constant bandwidth factor).
  const int n = net.node_count();
  const auto& topo = net.view();
  graph::Graph cover(2 * n);
  graph::EdgeSubset cover_m(2 * topo.edge_count() + 1);
  for (graph::EdgeId e = 0; e < topo.edge_count(); ++e) {
    const graph::Edge edge = topo.edge(e);
    const graph::EdgeId c1 = cover.add_edge(edge.u, edge.v + n);
    const graph::EdgeId c2 = cover.add_edge(edge.u + n, edge.v);
    if (m.contains(e)) {
      cover_m.insert(c1);
      cover_m.insert(c2);
    }
  }
  cover.add_edge(0, n);  // connectivity helper, never in cover_m

  congest::Network cover_net(cover, net.config());
  VerifyResult result;
  const auto cover_tree = build_bfs_tree(cover_net, 0);
  accumulate(result, cover_tree.stats);
  cover_net.set_subnetwork(cover_m);
  const auto comp = run_components(cover_net, cover_tree, true);
  accumulate(result, comp.stats);

  // Copy-pair comparison is local to each simulated node; the final AND is
  // one ordinary aggregation on the original network.
  std::vector<Payload> contrib;
  for (NodeId u = 0; u < n; ++u) {
    // u's M-component is bipartite iff u's two copies land in different
    // cover components (isolated nodes trivially satisfy this).
    const bool split = comp.component[static_cast<std::size_t>(u)] !=
                       comp.component[static_cast<std::size_t>(u + n)];
    contrib.push_back({split ? 1 : 0});
  }
  const auto agg = run_aggregate(net, tree, {Combiner::kAnd}, contrib);
  accumulate(result, agg.stats);
  result.accepted = agg.values[0] != 0;
  return result;
}

}  // namespace qdc::dist
