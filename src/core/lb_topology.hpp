// The lower-bound network N(Gamma, L) of Section 8 (Figures 8, 10, 13):
// the one definition every bench, test, example and the service use.
//
// Gamma "lines" of L nodes each: the first Gamma are plain paths
// P^1..P^Gamma; on top sit k = log2(L-1) highway paths H^1..H^k, where H^i
// has a node at every position 1 + j 2^i. Highway level 1 connects to all
// path nodes in its column; level i connects to level i-1 in its column.
// Columns 1 and L additionally carry cliques over all line endpoints (the
// leftmost/rightmost clique edges of N'), which is where the server-model
// matchings E_C and E_D embed. Observation D.2: Theta(Gamma L) nodes and
// Theta(log L) diameter.
//
// Every query is arithmetic over (Gamma, L, k) with only O(k) section
// offsets stored, so a Network over this view scales to the 10^6..10^7
// node benchmarks without materializing adjacency lists. Numbering: nodes
// are paths row-major, then highway levels; edges are path edges,
// intra-highway edges, column links level by level, left clique, right
// clique. congest::materialize(view) inserts the edges in that order, and
// a Network over either is bit-for-bit interchangeable (pinned by tests
// against an independent explicit construction).
#pragma once

#include <vector>

#include "congest/topology.hpp"
#include "graph/graph.hpp"

namespace qdc::core {

/// Which of the three simulating parties owns a node at a given time step
/// (Equations 36-38).
enum class Owner { kCarol, kDavid, kServer };

class LbTopologyView : public congest::TopologyView {
 public:
  /// Describes N(Gamma, L); L is rounded up to the next 2^k + 1 and must
  /// be at most 2^30 + 1.
  LbTopologyView(int gamma, int length);

  int node_count() const override { return nodes_; }
  int edge_count() const override { return edges_; }
  int degree(graph::NodeId u) const override;
  graph::NodeId neighbor(graph::NodeId u, int port) const override;
  graph::EdgeId edge_at(graph::NodeId u, int port) const override;
  graph::Edge edge(graph::EdgeId e) const override;
  const char* kind() const override { return "lb_network"; }

  int gamma() const { return gamma_; }
  int length() const { return length_; }          ///< L (after rounding)
  int highway_count() const { return highways_; } ///< k = log2(L - 1)
  /// Total lines = gamma + k (paths plus highways); the server-model
  /// instance G lives on this many nodes.
  int line_count() const { return gamma_ + highways_; }

  /// Node id of path node v^i_j (path 0 <= i < gamma, position 1 <= j <= L).
  graph::NodeId path_node(int i, int j) const;

  /// Node id of highway node h^level_j (level 1 <= level <= k; position j
  /// must be of the form 1 + m 2^level).
  graph::NodeId highway_node(int level, int j) const;

  /// True if `v` is a highway node.
  bool is_highway(graph::NodeId v) const;

  /// Column position (1..L) of any node.
  int position(graph::NodeId v) const;

  /// Leftmost (position 1) and rightmost (position L) node of line `l`
  /// (paths first, then highways).
  graph::NodeId line_start(int l) const;
  graph::NodeId line_end(int l) const;

  /// Owner of node v at time t per Equations (36)-(38): Carol owns columns
  /// <= t+1, David owns columns >= L-t, the server owns the middle.
  /// Requires 0 <= t <= L/2 - 1.
  Owner owner(graph::NodeId v, int t) const;

  /// Largest time step the ownership schedule supports: L/2 - 2.
  int max_simulated_rounds() const { return length_ / 2 - 2; }

  /// Embeds a server-model instance G = (U, E_C + E_D) given by two perfect
  /// matchings over the line_count() lines: the subnetwork M consists of
  /// all path and highway edges, E_C as left-clique edges between line
  /// starts, and E_D as right-clique edges between line ends (Figure 10's
  /// bold edges). Observation 8.1: M has exactly as many cycles as G.
  graph::EdgeSubset embed_matchings(
      const std::vector<graph::Edge>& carol_matching,
      const std::vector<graph::Edge>& david_matching) const;

 private:
  /// Resolves port `port` of node `u` to (edge id, peer id) in one walk
  /// over the node's port sections (ports are in increasing edge-id order).
  void port_entry(graph::NodeId u, int port, graph::EdgeId* edge,
                  graph::NodeId* peer) const;

  /// Member `l` (line index) of the left or right end-column clique.
  graph::NodeId clique_member(bool right, int l) const;

  /// Lexicographic rank of pair (a, b), a < b, among the line_count()
  /// endpoints of one clique.
  int clique_rank(int a, int b) const;

  int gamma_;
  int length_;
  int highways_;  // k
  int nodes_ = 0;
  int edges_ = 0;

  // Section offsets, all O(k) in size. Highway level lvl (1-based) has
  // count_[lvl] nodes starting at node_base_[lvl]; its intra edges start
  // at intra_base_[lvl]; the column links whose upper endpoint is level
  // lvl start at col_base_[lvl] (level 1 links carry Gamma edges per
  // highway node, higher levels one each). clique_base_[0] / [1] are the
  // left / right end-column cliques.
  std::vector<int> count_;
  std::vector<int> node_base_;
  std::vector<int> intra_base_;
  std::vector<int> col_base_;
  int clique_base_[2] = {0, 0};
};

}  // namespace qdc::core
