#include "congest/topology.hpp"

#include <algorithm>
#include <utility>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::congest {

void TopologyView::expect_valid_node(NodeId u) const {
  QDC_EXPECT(u >= 0 && u < node_count(), "TopologyView: bad node id");
}

void TopologyView::expect_valid_port(NodeId u, int port) const {
  expect_valid_node(u);
  QDC_EXPECT(port >= 0 && port < degree(u), "TopologyView: bad port");
}

void TopologyView::expect_valid_edge(EdgeId e) const {
  QDC_EXPECT(e >= 0 && e < edge_count(), "TopologyView: bad edge id");
}

double TopologyView::edge_weight(EdgeId e) const {
  expect_valid_edge(e);
  return 1.0;
}

graph::Graph materialize(const TopologyView& view) {
  graph::Graph g(view.node_count());
  for (EdgeId e = 0; e < view.edge_count(); ++e) {
    const graph::Edge ends = view.edge(e);
    g.add_edge(ends.u, ends.v);
  }
  return g;
}

MaterializedView::MaterializedView(graph::Graph graph)
    : graph_(std::move(graph)) {}

MaterializedView::MaterializedView(const graph::WeightedGraph& graph)
    : graph_(graph.topology()), weights_(graph.weights()) {}

int MaterializedView::degree(NodeId u) const {
  expect_valid_node(u);
  return graph_.degree(u);
}

NodeId MaterializedView::neighbor(NodeId u, int port) const {
  expect_valid_node(u);
  QDC_EXPECT(port >= 0 && port < graph_.degree(u), "TopologyView: bad port");
  return graph_.neighbors(u)[static_cast<std::size_t>(port)].neighbor;
}

EdgeId MaterializedView::edge_at(NodeId u, int port) const {
  expect_valid_node(u);
  QDC_EXPECT(port >= 0 && port < graph_.degree(u), "TopologyView: bad port");
  return graph_.neighbors(u)[static_cast<std::size_t>(port)].edge;
}

graph::Edge MaterializedView::edge(EdgeId e) const {
  expect_valid_edge(e);
  return graph_.edge(e);
}

double MaterializedView::edge_weight(EdgeId e) const {
  QDC_EXPECT(e >= 0 && e < graph_.edge_count(), "TopologyView: bad edge id");
  if (weights_.empty()) return 1.0;
  return weights_[static_cast<std::size_t>(e)];
}

PathView::PathView(int nodes) : nodes_(nodes) {
  QDC_EXPECT(nodes >= 1, "PathView: needs >= 1 node");
}

int PathView::degree(NodeId u) const {
  expect_valid_node(u);
  if (nodes_ == 1) return 0;
  return (u == 0 || u == nodes_ - 1) ? 1 : 2;
}

// Port order mirrors graph::path_graph insertion: interior nodes see their
// left edge (id u-1) before their right edge (id u).
NodeId PathView::neighbor(NodeId u, int port) const {
  expect_valid_port(u, port);
  if (u == 0) return 1;
  return (port == 0) ? u - 1 : u + 1;
}

EdgeId PathView::edge_at(NodeId u, int port) const {
  expect_valid_port(u, port);
  if (u == 0) return 0;
  return (port == 0) ? u - 1 : u;
}

graph::Edge PathView::edge(EdgeId e) const {
  expect_valid_edge(e);
  return graph::Edge{e, e + 1};
}

CycleView::CycleView(int nodes) : nodes_(nodes) {
  QDC_EXPECT(nodes >= 3, "CycleView: needs >= 3 nodes");
}

int CycleView::degree(NodeId u) const {
  expect_valid_node(u);
  return 2;
}

// graph::cycle_graph inserts path edges first and the closing edge
// (n-1, 0) last, so node 0's ports are (edge 0, edge n-1) and every other
// node's are (edge u-1, edge u).
NodeId CycleView::neighbor(NodeId u, int port) const {
  expect_valid_port(u, port);
  if (u == 0) return (port == 0) ? 1 : nodes_ - 1;
  return (port == 0) ? u - 1 : (u + 1) % nodes_;
}

EdgeId CycleView::edge_at(NodeId u, int port) const {
  expect_valid_port(u, port);
  if (u == 0) return (port == 0) ? 0 : nodes_ - 1;
  return (port == 0) ? u - 1 : u;
}

graph::Edge CycleView::edge(EdgeId e) const {
  expect_valid_edge(e);
  return graph::Edge{e, (e + 1) % nodes_};
}

BalancedTreeView::BalancedTreeView(int nodes, int arity)
    : nodes_(nodes), arity_(arity) {
  QDC_EXPECT(nodes >= 1, "BalancedTreeView: needs >= 1 node");
  QDC_EXPECT(arity >= 1, "BalancedTreeView: arity must be >= 1");
}

int BalancedTreeView::degree(NodeId u) const {
  expect_valid_node(u);
  const std::int64_t first_child =
      static_cast<std::int64_t>(u) * arity_ + 1;
  std::int64_t children = 0;
  if (first_child < nodes_) {
    children = std::min<std::int64_t>(arity_, nodes_ - first_child);
  }
  return static_cast<int>(children) + (u > 0 ? 1 : 0);
}

// Heap order makes the parent edge id (u-1) smaller than every child edge
// id (>= u*arity), so ports are: parent first (except at the root), then
// children left to right.
NodeId BalancedTreeView::neighbor(NodeId u, int port) const {
  expect_valid_port(u, port);
  if (u > 0 && port == 0) return (u - 1) / arity_;
  const int child_slot = port - (u > 0 ? 1 : 0);
  return u * arity_ + 1 + child_slot;
}

EdgeId BalancedTreeView::edge_at(NodeId u, int port) const {
  expect_valid_port(u, port);
  if (u > 0 && port == 0) return u - 1;  // parent edge
  return neighbor(u, port) - 1;          // child c hangs off edge c-1
}

graph::Edge BalancedTreeView::edge(EdgeId e) const {
  expect_valid_edge(e);
  return graph::Edge{e / arity_, e + 1};
}

GnmView::GnmView(int nodes, int edges, std::uint64_t seed)
    : nodes_(nodes), edges_(edges), seed_(seed) {
  QDC_EXPECT(nodes >= 2, "GnmView: needs >= 2 nodes");
  QDC_EXPECT(edges >= nodes - 1,
             "GnmView: needs >= n-1 edges (the connectivity backbone)");
  // Two counting passes build a flat CSR of incident edge ids; endpoints
  // are always recomputed from the hash, never stored.
  std::vector<int> deg(static_cast<std::size_t>(nodes), 0);
  for (EdgeId e = 0; e < edges; ++e) {
    const graph::Edge ends = endpoints(e);
    ++deg[static_cast<std::size_t>(ends.u)];
    ++deg[static_cast<std::size_t>(ends.v)];
  }
  port_begin_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  for (NodeId u = 0; u < nodes; ++u) {
    port_begin_[static_cast<std::size_t>(u) + 1] =
        port_begin_[static_cast<std::size_t>(u)] +
        deg[static_cast<std::size_t>(u)];
  }
  port_edge_.resize(static_cast<std::size_t>(port_begin_.back()));
  std::vector<std::int64_t> cursor(port_begin_.begin(),
                                   port_begin_.end() - 1);
  // Filling in increasing edge-id order yields ports sorted by edge id,
  // matching the Graph-insertion port contract.
  for (EdgeId e = 0; e < edges; ++e) {
    const graph::Edge ends = endpoints(e);
    port_edge_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ends.u)]++)] = e;
    port_edge_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ends.v)]++)] = e;
  }
}

graph::Edge GnmView::endpoints(EdgeId e) const {
  if (e < nodes_ - 1) return graph::Edge{e, e + 1};
  const auto t = static_cast<std::uint64_t>(e - (nodes_ - 1));
  const auto a = static_cast<NodeId>(
      splitmix64(seed_ ^ splitmix64(2 * t)) %
      static_cast<std::uint64_t>(nodes_));
  const auto step = static_cast<NodeId>(
      splitmix64(seed_ ^ splitmix64(2 * t + 1)) %
      static_cast<std::uint64_t>(nodes_ - 1));
  return graph::Edge{a, (a + 1 + step) % nodes_};
}

int GnmView::degree(NodeId u) const {
  QDC_EXPECT(u >= 0 && u < nodes_, "TopologyView: bad node id");
  return static_cast<int>(port_begin_[static_cast<std::size_t>(u) + 1] -
                          port_begin_[static_cast<std::size_t>(u)]);
}

NodeId GnmView::neighbor(NodeId u, int port) const {
  const graph::Edge ends = endpoints(edge_at(u, port));
  return ends.u == u ? ends.v : ends.u;
}

EdgeId GnmView::edge_at(NodeId u, int port) const {
  QDC_EXPECT(u >= 0 && u < nodes_, "TopologyView: bad node id");
  QDC_EXPECT(port >= 0 && port < degree(u), "TopologyView: bad port");
  return port_edge_[static_cast<std::size_t>(
      port_begin_[static_cast<std::size_t>(u)] + port)];
}

graph::Edge GnmView::edge(EdgeId e) const {
  expect_valid_edge(e);
  return endpoints(e);
}

}  // namespace qdc::congest
