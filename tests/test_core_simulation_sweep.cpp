// Property sweep for the Simulation Theorem harness: over random
// (Gamma, L, B, root) combinations and different algorithms, the charged
// cost never exceeds 6kB per round and only highway edges are charged -
// Appendix D's case analysis, checked on real message traces.
#include <gtest/gtest.h>

#include <memory>

#include "congest/network.hpp"
#include "core/lb_topology.hpp"
#include "core/simulation.hpp"
#include "dist/tree.hpp"
#include "util/rng.hpp"

namespace qdc::core {
namespace {

class HarnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(HarnessSweep, BfsFromAnyRootRespectsTheBound) {
  const int gamma = 2 + GetParam() % 4;
  const int length = 129 << (GetParam() % 2);
  const int bandwidth = 4 << (GetParam() % 3);
  const auto lb = std::make_shared<const LbTopologyView>(gamma, length);
  congest::Network net(lb, congest::NetworkConfig{.bandwidth = bandwidth});
  // Root anywhere: a path node or a highway node.
  const graph::NodeId root =
      GetParam() % 3 == 0
          ? lb->highway_node(1, 1 + 2 * (GetParam() % (length / 2)))
          : lb->path_node(GetParam() % gamma, 1 + GetParam() % length);
  const auto tree =
      dist::build_bfs_tree(net, root, {.record_trace = true});
  ASSERT_LE(tree.stats.rounds, lb->max_simulated_rounds());
  const auto acc = account_three_party_cost(*lb, net);
  EXPECT_LE(acc.max_charged_per_round, acc.per_round_bound)
      << "gamma=" << gamma << " L=" << length << " B=" << bandwidth;
  EXPECT_TRUE(acc.only_highway_edges_charged);
}

TEST_P(HarnessSweep, AggregationRespectsTheBound) {
  Rng rng(splitmix64(100 + static_cast<std::uint64_t>(GetParam())));
  const int gamma = 2 + GetParam() % 3;
  const auto lb = std::make_shared<const LbTopologyView>(gamma, 129);
  congest::Network net(lb, congest::NetworkConfig{.bandwidth = 8});
  const auto tree = dist::build_bfs_tree(net, lb->path_node(0, 1),
                                         {.record_trace = true});
  std::vector<dist::Payload> contrib;
  for (int u = 0; u < net.node_count(); ++u) {
    contrib.push_back({uniform_int(rng, 0, 100), 1});
  }
  const auto agg =
      run_aggregate(net, tree, {dist::Combiner::kMax, dist::Combiner::kSum},
                    contrib, {.record_trace = true});
  EXPECT_EQ(agg.values[1], net.node_count());
  ASSERT_LE(agg.stats.rounds, lb->max_simulated_rounds());
  const auto acc = account_three_party_cost(*lb, net);
  EXPECT_LE(acc.max_charged_per_round, acc.per_round_bound);
  EXPECT_TRUE(acc.only_highway_edges_charged);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarnessSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace qdc::core
