#include "dist/leader.hpp"

#include "congest/network.hpp"
#include "util/expect.hpp"

namespace qdc::dist {

namespace {

enum LeaderTag : std::int64_t {
  kMaxId = 50,  // {tag, best_id_seen}
};

class FloodMaxProgram : public congest::NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0) {
      best_ = ctx.id();
      ctx.send_all({kMaxId, best_});
      return;
    }
    bool improved = false;
    for (const Incoming& msg : inbox) {
      if (msg.data[1] > best_) {
        best_ = msg.data[1];
        improved = true;
      }
    }
    if (improved) {
      ctx.send_all({kMaxId, best_});
    }
    // Information travels one hop per round: after n rounds the global
    // maximum has reached everyone.
    if (ctx.round() >= ctx.node_count()) {
      ctx.set_output(best_);
      ctx.halt();
    }
  }

  std::int64_t best() const { return best_; }

 private:
  std::int64_t best_ = -1;
};

}  // namespace

LeaderResult elect_leader(Network& net) {
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FloodMaxProgram>();
  });
  const auto stats = net.run({.max_rounds = net.node_count() + 2});
  QDC_CHECK(stats.completed, "elect_leader: did not complete");
  LeaderResult result;
  result.stats = stats;
  result.leader = static_cast<NodeId>(net.output(0).value());
  // Sanity: all nodes agree (they must, after n rounds on a connected
  // network).
  for (NodeId u = 0; u < net.node_count(); ++u) {
    QDC_CHECK(net.output(u).value() == result.leader,
              "elect_leader: disagreement (network disconnected?)");
  }
  return result;
}

CensusResult run_census(Network& net) {
  CensusResult result;
  const auto elected = elect_leader(net);
  result.leader = elected.leader;
  result.rounds = elected.stats.rounds;

  const auto tree = build_bfs_tree(net, elected.leader);
  result.rounds += tree.stats.rounds;

  // Sum of 1 per node and of degree per node (each edge counted twice).
  std::vector<Payload> contrib;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    contrib.push_back(
        {1, static_cast<std::int64_t>(net.view().degree(u))});
  }
  const auto agg =
      run_aggregate(net, tree, {Combiner::kSum, Combiner::kSum}, contrib);
  result.rounds += agg.stats.rounds;
  result.node_count = agg.values[0];
  result.edge_count = agg.values[1] / 2;
  return result;
}

}  // namespace qdc::dist
