#include "dist/sssp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "congest/network.hpp"
#include "dist/mst.hpp"
#include "util/expect.hpp"

namespace qdc::dist {

namespace {

enum SsspTag : std::int64_t {
  kDist = 40,  // {tag, bit_cast<double> distance-of-sender}
};

class BellmanFordProgram : public congest::NodeProgram {
 public:
  explicit BellmanFordProgram(NodeId source) : source_(source) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    bool improved = false;
    if (ctx.round() == 0 && ctx.id() == source_) {
      distance_ = 0.0;
      improved = true;
    }
    for (const Incoming& msg : inbox) {
      const double through = std::bit_cast<double>(msg.data[1]) +
                             ctx.edge_weight(msg.port);
      if (through < distance_) {
        distance_ = through;
        parent_port_ = msg.port;
        improved = true;
      }
    }
    if (improved) {
      ctx.send_all({kDist, std::bit_cast<std::int64_t>(distance_)});
    }
    // Shortest paths have at most n-1 hops: everything has converged by
    // round n-1; halt one round later so final messages drain.
    if (ctx.round() >= ctx.node_count()) {
      ctx.set_output(std::bit_cast<std::int64_t>(distance_));
      ctx.halt();
    }
  }

  double distance() const { return distance_; }
  int parent_port() const { return parent_port_; }

 private:
  NodeId source_;
  double distance_ = graph::kInfiniteDistance;
  int parent_port_ = -1;
};

}  // namespace

SsspResult run_bellman_ford(Network& net, NodeId source) {
  QDC_EXPECT(source >= 0 && source < net.node_count(),
             "run_bellman_ford: bad source");
  net.install([source](NodeId, const NodeContext&) {
    return std::make_unique<BellmanFordProgram>(source);
  });
  const auto stats = net.run({.max_rounds = net.node_count() + 2});
  QDC_CHECK(stats.completed, "run_bellman_ford: did not complete");
  SsspResult result;
  result.stats = stats;
  result.distance.resize(static_cast<std::size_t>(net.node_count()));
  result.parent_port.resize(static_cast<std::size_t>(net.node_count()));
  std::set<graph::EdgeId> edges;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    auto* prog = dynamic_cast<BellmanFordProgram*>(net.program(u));
    QDC_EXPECT(prog != nullptr, "run_bellman_ford: foreign program");
    result.distance[static_cast<std::size_t>(u)] = prog->distance();
    result.parent_port[static_cast<std::size_t>(u)] = prog->parent_port();
    if (prog->parent_port() >= 0) {
      edges.insert(net.view().edge_at(u, prog->parent_port()));
    }
  }
  result.tree_edges.assign(edges.begin(), edges.end());
  return result;
}

double run_st_distance(Network& net, NodeId s, NodeId t) {
  QDC_EXPECT(t >= 0 && t < net.node_count(), "run_st_distance: bad t");
  return run_bellman_ford(net, s).distance[static_cast<std::size_t>(t)];
}

LeListVerifyResult verify_least_element_list(
    Network& net, NodeId u, const std::vector<int>& rank,
    const std::vector<graph::LeListEntry>& claimed) {
  QDC_EXPECT(rank.size() == static_cast<std::size_t>(net.node_count()),
             "verify_least_element_list: rank size mismatch");
  LeListVerifyResult result;

  // 1. Distances from u.
  const auto sssp = run_bellman_ford(net, u);
  result.rounds += sssp.stats.rounds;
  result.messages += sssp.stats.messages;

  // 2. Gather (node, distance, rank) triples at u via a BFS tree rooted
  //    there (pipelined upcast, O(D + n) rounds).
  const auto tree = build_bfs_tree(net, u);
  result.rounds += tree.stats.rounds;
  result.messages += tree.stats.messages;
  std::vector<std::vector<Payload>> items(
      static_cast<std::size_t>(net.node_count()));
  for (NodeId v = 0; v < net.node_count(); ++v) {
    items[static_cast<std::size_t>(v)].push_back(
        {v,
         std::bit_cast<std::int64_t>(
             sssp.distance[static_cast<std::size_t>(v)]),
         rank[static_cast<std::size_t>(v)]});
  }
  const auto gathered = run_gather(net, tree, 3, items);
  result.rounds += gathered.stats.rounds;
  result.messages += gathered.stats.messages;

  // 3. u rebuilds the true LE-list locally and compares.
  std::vector<std::tuple<double, int, NodeId>> rows;
  for (const Payload& item : gathered.items) {
    const double d = std::bit_cast<double>(item[1]);
    if (d < graph::kInfiniteDistance) {
      rows.emplace_back(d, static_cast<int>(item[2]),
                        static_cast<NodeId>(item[0]));
    }
  }
  std::sort(rows.begin(), rows.end());
  std::vector<graph::LeListEntry> truth;
  int best_rank = std::numeric_limits<int>::max();
  for (const auto& [d, r, v] : rows) {
    if (r < best_rank) {
      best_rank = r;
      truth.push_back(graph::LeListEntry{v, d});
    }
  }
  result.accepted = truth.size() == claimed.size();
  if (result.accepted) {
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (truth[i].node != claimed[i].node ||
          std::abs(truth[i].distance - claimed[i].distance) > 1e-9) {
        result.accepted = false;
        break;
      }
    }
  }
  return result;
}

bool min_cut_keeps_edge(std::uint64_t shared_seed, graph::EdgeId e,
                        int level, int trial) {
  QDC_EXPECT(e >= 0 && level >= 0 && level < 64 && trial >= 0 &&
                 trial < (1 << 24),
             "min_cut_keeps_edge: edge, level or trial out of range");
  // The edge id takes the low 32 bits, the trial the next 24 and the
  // level the top 8: no two (e, level, trial) share a key.
  const std::uint64_t key = (static_cast<std::uint64_t>(level) << 56) |
                            (static_cast<std::uint64_t>(trial) << 32) |
                            static_cast<std::uint64_t>(e);
  const std::uint64_t h = congest::shared_hash(shared_seed, key);
  // Keep with probability 2^-level: the low `level` bits must be clear.
  return level == 0 || (h & ((std::uint64_t{1} << level) - 1)) == 0;
}

MinCutEstimate estimate_min_cut(Network& net, const BfsTreeResult& tree,
                                int trials_per_level) {
  QDC_EXPECT(trials_per_level >= 1, "estimate_min_cut: bad trial count");
  MinCutEstimate result;
  const auto& topo = net.view();
  const int levels =
      static_cast<int>(std::ceil(std::log2(std::max(2, topo.edge_count())))) +
      2;
  for (int level = 0; level < levels; ++level) {
    int disconnects = 0;
    for (int trial = 0; trial < trials_per_level; ++trial) {
      graph::EdgeSubset sample(topo.edge_count());
      for (graph::EdgeId e = 0; e < topo.edge_count(); ++e) {
        if (min_cut_keeps_edge(net.shared_seed(), e, level, trial)) {
          sample.insert(e);
        }
      }
      net.set_subnetwork(sample);
      const auto comp = run_components(net, tree, true);
      result.rounds += comp.stats.rounds;
      result.messages += comp.stats.messages;
      std::int64_t leaders = 0;
      for (NodeId v = 0; v < net.node_count(); ++v) {
        if (comp.component[static_cast<std::size_t>(v)] == v) ++leaders;
      }
      if (leaders > 1) ++disconnects;
    }
    if (2 * disconnects > trials_per_level) {
      // Majority of samples at probability 2^-level disconnected: the cut
      // is around 2^level (up to the usual O(log n) sampling slack).
      result.threshold_p = std::pow(0.5, level);
      result.estimate = std::pow(2.0, level);
      net.clear_subnetwork();
      return result;
    }
  }
  result.threshold_p = std::pow(0.5, levels);
  result.estimate = std::pow(2.0, levels);
  net.clear_subnetwork();
  return result;
}

}  // namespace qdc::dist
