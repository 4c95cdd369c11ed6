// Distributed single-source shortest paths (Bellman-Ford) and the
// optimization/verification problems built on it (Appendix A.2/A.3:
// s-source distance, shortest-path tree, shortest s-t path, least-element
// lists).
//
// Distributed Bellman-Ford runs in Theta(n) rounds in the worst case; it is
// the classical exact baseline the paper's discussion of shortest-path
// upper bounds starts from (Section 3.2 cites the newer O~(sqrt(n) D^1/4)
// approximations, whose shape bench E10 addresses through the bound
// calculators instead).
#pragma once

#include <cstdint>

#include "congest/stats.hpp"
#include "dist/tree.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"

namespace qdc::dist {

struct SsspResult {
  std::vector<double> distance;        ///< per node; +inf if unreachable
  std::vector<int> parent_port;        ///< port towards the source; -1 at
                                       ///< the source / unreachable nodes
  std::vector<graph::EdgeId> tree_edges;  ///< shortest-path tree edges
  congest::RunStats stats;
};

/// Bellman-Ford from `source` over the full topology with true edge
/// weights. Runs for exactly n rounds (the classical bound).
SsspResult run_bellman_ford(Network& net, NodeId source);

/// Weighted s-t distance (read off t after an SSSP run).
double run_st_distance(Network& net, NodeId s, NodeId t);

/// Verifies a least-element list (Appendix A.2): node u holds a claimed
/// list S; the network computes distances from u (Bellman-Ford) and gathers
/// (node, distance, rank) triples at u through a BFS tree rooted at u,
/// where u checks S locally.
struct LeListVerifyResult {
  bool accepted = false;
  int rounds = 0;
  std::int64_t messages = 0;
};
LeListVerifyResult verify_least_element_list(
    Network& net, NodeId u, const std::vector<int>& rank,
    const std::vector<graph::LeListEntry>& claimed);

/// Sampling-based estimate of the (unweighted) edge connectivity: for
/// p = 1, 1/2, 1/4, ... every edge is kept with probability p using the
/// shared random tape (both endpoints agree on the coin without
/// communication); the estimate is c / p* at the first p* whose sampled
/// subgraph disconnects. This is a Karger-style O(log n)-factor estimator
/// built entirely from the components engine.
struct MinCutEstimate {
  double estimate = 0.0;
  double threshold_p = 0.0;  ///< first sampling probability that disconnected
  int rounds = 0;
  std::int64_t messages = 0;
};
MinCutEstimate estimate_min_cut(Network& net, const BfsTreeResult& tree,
                                int trials_per_level = 3);

/// The estimator's coin: whether sample `trial` of level `level` keeps
/// edge `e`, with probability 2^-level. It reads the shared random tape
/// under `shared_seed` at a key injective in (e, level, trial), so both
/// endpoints of `e` could draw it without communicating, and every trial
/// is its own sample. Requires level in [0, 64) and trial in [0, 2^24).
bool min_cut_keeps_edge(std::uint64_t shared_seed, graph::EdgeId e,
                        int level, int trial);

}  // namespace qdc::dist
