// Implicit topology providers for the CONGEST round engine.
//
// A TopologyView answers the structural questions the Network needs —
// node count, degrees, neighbor/port enumeration, edge-id mapping —
// without dictating how the answers are stored. The materialized adapter
// wraps a graph::Graph; the formula-backed views (path, cycle, balanced
// tree, seeded G(n,m)) answer from arithmetic and never build adjacency
// lists, which is what lets bench_engine_scaling run 10^6..10^7-node
// graphs whose graph::Graph representation would be the bottleneck.
// The paper's N(Gamma, L) lower-bound family has its own formula-backed
// view in core/lb_topology.hpp.
//
// Port contract (shared with graph::Graph adjacency): node u's ports
// 0..degree(u)-1 enumerate its incident edges in increasing edge-id
// order, one port per incident edge (parallel edges get distinct ports).
// Every formula-backed view in this file assigns edge ids exactly as the
// corresponding graph::Graph construction would insert them, so a
// Network built over the view is indistinguishable — ports, traces,
// outputs — from one built over the materialized graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace qdc::congest {

using graph::EdgeId;
using graph::NodeId;

/// Read-only structural view of an undirected multigraph. Implementations
/// must be immutable after construction and safe to read from many
/// threads at once.
class TopologyView {
 public:
  virtual ~TopologyView() = default;

  virtual int node_count() const = 0;
  virtual int edge_count() const = 0;

  /// Number of incident edges of `u` (parallel edges counted separately).
  virtual int degree(NodeId u) const = 0;

  /// Neighbor behind `u`'s `port` (ports 0..degree(u)-1, increasing
  /// edge-id order).
  virtual NodeId neighbor(NodeId u, int port) const = 0;

  /// Global id of the edge behind `u`'s `port`.
  virtual EdgeId edge_at(NodeId u, int port) const = 0;

  /// Endpoints of edge `e`, in the orientation the edge was defined with.
  virtual graph::Edge edge(EdgeId e) const = 0;

  /// Weight of edge `e`; 1.0 unless the view carries explicit weights.
  virtual double edge_weight(EdgeId e) const;

  /// Short stable name of the topology family ("materialized", "path",
  /// ...); benches report it as `topology_kind`.
  virtual const char* kind() const = 0;

 protected:
  /// Shared precondition guards for implementations.
  void expect_valid_node(NodeId u) const;
  void expect_valid_port(NodeId u, int port) const;
  void expect_valid_edge(EdgeId e) const;
};

/// Materializes `view` by inserting its edges in edge-id order; by the port
/// contract the graph has the view's degrees, ports, peers and endpoints.
/// Edge weights are not copied.
graph::Graph materialize(const TopologyView& view);

/// Adapter over an explicit graph::Graph (optionally weighted). Owns the
/// graph; the Network keeps the view alive through a shared_ptr.
class MaterializedView final : public TopologyView {
 public:
  explicit MaterializedView(graph::Graph graph);
  explicit MaterializedView(const graph::WeightedGraph& graph);

  int node_count() const override { return graph_.node_count(); }
  int edge_count() const override { return graph_.edge_count(); }
  int degree(NodeId u) const override;
  NodeId neighbor(NodeId u, int port) const override;
  EdgeId edge_at(NodeId u, int port) const override;
  graph::Edge edge(EdgeId e) const override;
  double edge_weight(EdgeId e) const override;
  const char* kind() const override { return "materialized"; }

 private:
  graph::Graph graph_;
  std::vector<double> weights_;  // empty = all 1.0
};

/// Path 0-1-...-n-1; edge e joins e and e+1 (graph::path_graph layout).
class PathView final : public TopologyView {
 public:
  explicit PathView(int nodes);

  int node_count() const override { return nodes_; }
  int edge_count() const override { return nodes_ - 1; }
  int degree(NodeId u) const override;
  NodeId neighbor(NodeId u, int port) const override;
  EdgeId edge_at(NodeId u, int port) const override;
  graph::Edge edge(EdgeId e) const override;
  const char* kind() const override { return "path"; }

 private:
  int nodes_;
};

/// Cycle 0-1-...-n-1-0; edge e joins e and (e+1) mod n
/// (graph::cycle_graph layout).
class CycleView final : public TopologyView {
 public:
  explicit CycleView(int nodes);

  int node_count() const override { return nodes_; }
  int edge_count() const override { return nodes_; }
  int degree(NodeId u) const override;
  NodeId neighbor(NodeId u, int port) const override;
  EdgeId edge_at(NodeId u, int port) const override;
  graph::Edge edge(EdgeId e) const override;
  const char* kind() const override { return "cycle"; }

 private:
  int nodes_;
};

/// Complete `arity`-ary tree in heap order: node c > 0 hangs off parent
/// (c-1)/arity through edge c-1, so edge e joins e/arity and e+1.
class BalancedTreeView final : public TopologyView {
 public:
  BalancedTreeView(int nodes, int arity);

  int node_count() const override { return nodes_; }
  int edge_count() const override { return nodes_ - 1; }
  int degree(NodeId u) const override;
  NodeId neighbor(NodeId u, int port) const override;
  EdgeId edge_at(NodeId u, int port) const override;
  graph::Edge edge(EdgeId e) const override;
  const char* kind() const override { return "tree"; }

 private:
  int nodes_;
  int arity_;
};

/// Seeded connected G(n, m): a path backbone 0-1-...-n-1 (edges 0..n-2)
/// plus m-(n-1) extra edges whose endpoints are SplitMix64 hashes of
/// (seed, edge index). Endpoints are recomputed on demand; only a flat
/// CSR of incident edge ids is stored (two ints per edge endpoint), so
/// the footprint stays far below a materialized graph::Graph.
class GnmView final : public TopologyView {
 public:
  GnmView(int nodes, int edges, std::uint64_t seed);

  int node_count() const override { return nodes_; }
  int edge_count() const override { return edges_; }
  int degree(NodeId u) const override;
  NodeId neighbor(NodeId u, int port) const override;
  EdgeId edge_at(NodeId u, int port) const override;
  graph::Edge edge(EdgeId e) const override;
  const char* kind() const override { return "gnm"; }

 private:
  graph::Edge endpoints(EdgeId e) const;

  int nodes_;
  int edges_;
  std::uint64_t seed_;
  std::vector<std::int64_t> port_begin_;  // node -> first slot, size n+1
  std::vector<EdgeId> port_edge_;         // slot -> incident edge id
};

}  // namespace qdc::congest
