// Tests for the lower-bound network N(Gamma, L): structure (Observation
// D.2), ownership schedule (Equations 36-38) and the server-instance
// embedding (Observation 8.1 / D.3). The port-by-port match against an
// explicit construction lives in test_congest_topology.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "congest/topology.hpp"
#include "core/lb_topology.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::core {
namespace {

TEST(LbTopologyView, RoundsLengthUpToPowerOfTwoPlusOne) {
  EXPECT_EQ(LbTopologyView(2, 3).length(), 3);
  EXPECT_EQ(LbTopologyView(2, 4).length(), 5);
  EXPECT_EQ(LbTopologyView(2, 9).length(), 9);
  EXPECT_EQ(LbTopologyView(2, 10).length(), 17);
}

TEST(LbTopologyView, NodeCountIsThetaGammaL) {
  for (const auto& [gamma, len] : std::vector<std::pair<int, int>>{
           {2, 9}, {4, 17}, {8, 33}, {3, 65}}) {
    const LbTopologyView lb(gamma, len);
    const int n = lb.node_count();
    EXPECT_GE(n, gamma * lb.length());
    // Highways add at most one extra path's worth of nodes (geometric sum).
    EXPECT_LE(n, (gamma + 2) * lb.length());
  }
}

TEST(LbTopologyView, DiameterIsLogarithmic) {
  for (const int len : {9, 17, 33, 65, 129}) {
    const LbTopologyView lb(3, len);
    const int d = graph::diameter(congest::materialize(lb));
    const int k = lb.highway_count();
    EXPECT_LE(d, 4 * k + 6) << "L=" << len;
    EXPECT_GE(d, k / 2) << "L=" << len;
  }
  // And it grows far slower than L.
  EXPECT_LT(graph::diameter(congest::materialize(LbTopologyView(3, 129))),
            129 / 4);
}

TEST(LbTopologyView, HighwayPositionsAndLevels) {
  const LbTopologyView lb(2, 9);  // L = 9, k = 3
  EXPECT_EQ(lb.highway_count(), 3);
  // H^1 sits at odd positions.
  EXPECT_EQ(lb.position(lb.highway_node(1, 1)), 1);
  EXPECT_EQ(lb.position(lb.highway_node(1, 3)), 3);
  EXPECT_EQ(lb.position(lb.highway_node(3, 9)), 9);
  EXPECT_THROW(lb.highway_node(2, 2), ContractError);
  EXPECT_THROW(lb.highway_node(4, 1), ContractError);
  EXPECT_TRUE(lb.is_highway(lb.highway_node(1, 5)));
  EXPECT_FALSE(lb.is_highway(lb.path_node(0, 5)));
  EXPECT_THROW(lb.position(lb.node_count()), ContractError);
}

TEST(LbTopologyView, OwnershipSchedule) {
  const LbTopologyView lb(2, 17);
  // t = 0: Carol owns column 1, David column L, server the rest (Eq. 3).
  EXPECT_EQ(lb.owner(lb.path_node(0, 1), 0), Owner::kCarol);
  EXPECT_EQ(lb.owner(lb.path_node(0, 2), 0), Owner::kServer);
  EXPECT_EQ(lb.owner(lb.path_node(1, 17), 0), Owner::kDavid);
  EXPECT_EQ(lb.owner(lb.path_node(1, 16), 0), Owner::kServer);
  // t = 2: Carol's frontier moved to column 3 (Eq. 4 analogue).
  EXPECT_EQ(lb.owner(lb.path_node(0, 3), 2), Owner::kCarol);
  EXPECT_EQ(lb.owner(lb.path_node(0, 4), 2), Owner::kServer);
  EXPECT_EQ(lb.owner(lb.path_node(0, 15), 2), Owner::kDavid);
  // Highways obey the same column rule.
  EXPECT_EQ(lb.owner(lb.highway_node(4, 1), 0), Owner::kCarol);
  EXPECT_EQ(lb.owner(lb.highway_node(4, 17), 0), Owner::kDavid);
  EXPECT_EQ(lb.owner(lb.highway_node(1, 9), 2), Owner::kServer);
}

TEST(LbTopologyView, OwnershipSetsStayDisjointUntilTheDeadline) {
  const LbTopologyView lb(2, 17);
  const int t_max = lb.max_simulated_rounds();
  EXPECT_EQ(t_max, 17 / 2 - 2);
  // At t_max, Carol's and David's frontiers must not have met.
  for (graph::NodeId v = 0; v < lb.node_count(); ++v) {
    const Owner o = lb.owner(v, t_max);
    if (lb.position(v) <= t_max + 1) {
      EXPECT_EQ(o, Owner::kCarol);
    } else if (lb.position(v) >= 17 - t_max) {
      EXPECT_EQ(o, Owner::kDavid);
    }
  }
}

class EmbeddingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EmbeddingProperty, CycleCountsMatchObservation81) {
  Rng rng(static_cast<unsigned>(GetParam()));
  const int gamma = 2 + GetParam() % 5;
  const LbTopologyView lb(gamma, 9 + 8 * (GetParam() % 3));
  const int lines = lb.line_count();
  if (lines % 2 != 0) return;  // matchings need an even line count
  const auto ec = graph::random_perfect_matching(lines, rng);
  const auto ed = graph::random_perfect_matching(lines, rng);
  const auto m = lb.embed_matchings(ec, ed);

  // G = union of the two matchings on the line set.
  graph::Graph g(lines);
  for (const auto& e : ec) g.add_edge(e.u, e.v);
  for (const auto& e : ed) g.add_edge(e.u, e.v);

  const graph::Graph m_graph = graph::subgraph(congest::materialize(lb), m);
  EXPECT_EQ(graph::cycle_count_degree_two(m_graph),
            graph::cycle_count_degree_two(g));
  // And the Hamiltonicity correspondence of Observation D.3.
  EXPECT_EQ(graph::is_hamiltonian_cycle(m_graph),
            graph::is_hamiltonian_cycle(g));

  // Every edge of M that is not horizontal joins the two lines' start
  // nodes (an E_C edge) or end nodes (an E_D edge).
  using Ends = std::pair<graph::NodeId, graph::NodeId>;
  const auto ends = [](graph::NodeId a, graph::NodeId b) {
    return Ends{std::min(a, b), std::max(a, b)};
  };
  std::multiset<Ends> expected;
  for (const auto& e : ec) {
    expected.insert(ends(lb.line_start(e.u), lb.line_start(e.v)));
  }
  for (const auto& e : ed) {
    expected.insert(ends(lb.line_end(e.u), lb.line_end(e.v)));
  }
  std::multiset<Ends> embedded;
  for (const graph::EdgeId e : m.to_vector()) {
    const graph::Edge edge = lb.edge(e);
    if (lb.position(edge.u) != lb.position(edge.v)) continue;  // horizontal
    embedded.insert(ends(edge.u, edge.v));
  }
  EXPECT_EQ(embedded, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbeddingProperty, ::testing::Range(0, 20));

TEST(LbTopologyView, EmbedRejectsNonMatchings) {
  const LbTopologyView lb(3, 9);  // lines = 3 + 3 = 6
  std::vector<graph::Edge> bad{{0, 1}, {1, 2}};  // node 1 twice, others missing
  std::vector<graph::Edge> ok{{0, 1}, {2, 3}, {4, 5}};
  EXPECT_THROW(lb.embed_matchings(bad, ok), ModelError);
  EXPECT_THROW(lb.embed_matchings(ok, bad), ModelError);
}

}  // namespace
}  // namespace qdc::core
