// Tests for the three-party Simulation Theorem harness (Theorem 3.5):
// the per-round charged cost of ANY algorithm run on N(Gamma, L) within the
// schedule is at most 6 k B fields, and only highway-highway edges are ever
// charged (Appendix D's case analysis).
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "congest/network.hpp"
#include "core/lb_topology.hpp"
#include "core/simulation.hpp"
#include "dist/tree.hpp"
#include "util/expect.hpp"

namespace qdc::core {
namespace {

std::shared_ptr<const LbTopologyView> make_lb(int gamma, int length) {
  return std::make_shared<const LbTopologyView>(gamma, length);
}

congest::Network make_net(std::shared_ptr<const LbTopologyView> lb,
                          int bandwidth = 8) {
  return congest::Network(std::move(lb),
                          congest::NetworkConfig{.bandwidth = bandwidth});
}

/// Execution options for runs the accountant will read: it needs a trace.
constexpr congest::RunOptions kTraced{.record_trace = true};

TEST(SimulationTheorem, BfsTreeConstructionWithinBound) {
  const auto lb = make_lb(3, 129);
  auto net = make_net(lb);
  const auto tree = dist::build_bfs_tree(net, lb->path_node(0, 1), kTraced);
  ASSERT_LE(tree.stats.rounds, lb->max_simulated_rounds())
      << "BFS must fit in the schedule for the harness to apply";
  const auto acc = account_three_party_cost(*lb, net);
  EXPECT_EQ(acc.rounds, tree.stats.rounds);
  EXPECT_LE(acc.max_charged_per_round, acc.per_round_bound);
  EXPECT_TRUE(acc.only_highway_edges_charged);
  EXPECT_GT(acc.total_charged(), 0);  // something must cross the frontier
}

TEST(SimulationTheorem, AggregationWithinBound) {
  const auto lb = make_lb(4, 65);
  auto net = make_net(lb);
  const auto tree = dist::build_bfs_tree(net, lb->path_node(0, 1), kTraced);
  std::vector<dist::Payload> contrib(
      static_cast<std::size_t>(net.node_count()), dist::Payload{1});
  const auto agg =
      run_aggregate(net, tree, {dist::Combiner::kSum}, contrib, kTraced);
  EXPECT_EQ(agg.values[0], net.node_count());
  ASSERT_LE(agg.stats.rounds, lb->max_simulated_rounds());
  const auto acc = account_three_party_cost(*lb, net);
  EXPECT_LE(acc.max_charged_per_round, acc.per_round_bound);
  EXPECT_TRUE(acc.only_highway_edges_charged);
}

/// Adversarially chatty: every node pushes B fields through every edge
/// every round. Even then, the charged cost per round cannot exceed 6kB -
/// the theorem's statement is about the topology and ownership schedule,
/// not about the algorithm's politeness.
class FloodEverything : public congest::NodeProgram {
 public:
  explicit FloodEverything(int rounds) : rounds_(rounds) {}
  void on_round(congest::NodeContext& ctx,
                const std::vector<congest::Incoming>&) override {
    if (ctx.round() >= rounds_) {
      ctx.set_output(0);
      ctx.halt();
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      congest::Payload full(static_cast<std::size_t>(ctx.bandwidth()),
                            ctx.round());
      ctx.send(p, std::move(full));
    }
  }

 private:
  int rounds_;
};

TEST(SimulationTheorem, WorstCaseTrafficStillWithinBound) {
  const auto lb = make_lb(3, 65);
  auto net = make_net(lb, /*bandwidth=*/4);
  const int t = lb->max_simulated_rounds() - 2;
  net.install([&](congest::NodeId, const congest::NodeContext&) {
    return std::make_unique<FloodEverything>(t);
  });
  const auto stats = net.run({.max_rounds = t + 2, .record_trace = true});
  ASSERT_TRUE(stats.completed);
  const auto acc = account_three_party_cost(*lb, net);
  EXPECT_LE(acc.max_charged_per_round, acc.per_round_bound);
  EXPECT_TRUE(acc.only_highway_edges_charged);
  // With everything saturated, the charge should be close to the bound
  // (the analysis is tight up to a small constant).
  EXPECT_GE(acc.max_charged_per_round, acc.per_round_bound / 6);
}

TEST(SimulationTheorem, RefusesRunsBeyondTheSchedule) {
  const auto lb = make_lb(2, 9);  // max_simulated_rounds = 2
  auto net = make_net(lb);
  net.install([&](congest::NodeId, const congest::NodeContext&) {
    return std::make_unique<FloodEverything>(10);
  });
  net.run({.max_rounds = 12, .record_trace = true});
  EXPECT_THROW(account_three_party_cost(*lb, net), ModelError);
}

TEST(SimulationTheorem, RefusesUntracedRuns) {
  const auto lb = make_lb(2, 17);
  congest::Network net(lb, congest::NetworkConfig{});
  net.install([&](congest::NodeId, const congest::NodeContext&) {
    return std::make_unique<FloodEverything>(2);
  });
  net.run({.max_rounds = 5});
  EXPECT_THROW(account_three_party_cost(*lb, net), ContractError);
}

}  // namespace
}  // namespace qdc::core
