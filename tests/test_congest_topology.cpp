// TopologyView contract tests: every formula-backed view must be
// indistinguishable from the materialized graph::Graph built by inserting
// its edges in edge-id order — same counts, degrees, ports, peers and
// endpoints — and a Network built over the view must behave bit-for-bit
// like one built over the graph. Also pins LbTopologyView against an
// independent explicit construction of N(Gamma, L), and covers the
// WeightedShardPlan geometry.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/stats.hpp"
#include "congest/topology.hpp"
#include "core/lb_network.hpp"
#include "core/lb_topology.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/expect.hpp"
#include "util/shard.hpp"

namespace qdc::congest {
namespace {

void expect_views_equal(const TopologyView& a, const TopologyView& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId u = 0; u < a.node_count(); ++u) {
    ASSERT_EQ(a.degree(u), b.degree(u)) << "node " << u;
    for (int p = 0; p < a.degree(u); ++p) {
      EXPECT_EQ(a.edge_at(u, p), b.edge_at(u, p))
          << "node " << u << " port " << p;
      EXPECT_EQ(a.neighbor(u, p), b.neighbor(u, p))
          << "node " << u << " port " << p;
    }
  }
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    const graph::Edge ea = a.edge(e);
    const graph::Edge eb = b.edge(e);
    EXPECT_EQ(ea.u, eb.u) << "edge " << e;
    EXPECT_EQ(ea.v, eb.v) << "edge " << e;
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e)) << "edge " << e;
  }
}

void expect_self_consistent(const TopologyView& view) {
  const MaterializedView mat(materialize(view));
  expect_views_equal(view, mat);
}

TEST(TopologyView, PathMatchesPathGraph) {
  const PathView view(9);
  expect_views_equal(view, MaterializedView(graph::path_graph(9)));
  expect_self_consistent(PathView(2));
}

TEST(TopologyView, CycleMatchesCycleGraph) {
  const CycleView view(9);
  expect_views_equal(view, MaterializedView(graph::cycle_graph(9)));
  expect_self_consistent(CycleView(3));
}

TEST(TopologyView, BalancedTreeIsSelfConsistent) {
  expect_self_consistent(BalancedTreeView(1, 2));
  expect_self_consistent(BalancedTreeView(2, 2));
  expect_self_consistent(BalancedTreeView(15, 2));   // perfect binary
  expect_self_consistent(BalancedTreeView(22, 3));   // ragged ternary
}

TEST(TopologyView, GnmIsSelfConsistent) {
  expect_self_consistent(GnmView(12, 11, 7));   // backbone only
  expect_self_consistent(GnmView(12, 30, 7));   // with hashed extras
  expect_self_consistent(GnmView(40, 95, 123456789));
}

TEST(TopologyView, GnmIsSeedStable) {
  const GnmView a(30, 70, 42);
  const GnmView b(30, 70, 42);
  expect_views_equal(a, b);
}

/// Independent reference for N(Gamma, L) with L = 2^k + 1: the explicit
/// construction loop (path edges, intra-highway edges, column links level
/// by level, left clique, right clique), recording each node's position
/// and highway level as it is built.
struct LbReference {
  graph::Graph graph;
  std::vector<int> position;                 // per node, 1..L
  std::vector<int> level;                    // per node; 0 on paths
  std::vector<std::vector<NodeId>> highway;  // highway[lvl - 1][m]
};

LbReference build_lb_reference(int gamma, int length) {
  int k = 0;
  while ((1 << (k + 1)) <= length - 1) ++k;
  int total = gamma * length;
  std::vector<int> level_base(k + 1, 0);
  for (int lvl = 1; lvl <= k; ++lvl) {
    level_base[lvl] = total;
    total += (length - 1) / (1 << lvl) + 1;
  }
  LbReference ref{graph::Graph(total), std::vector<int>(total, 0),
                  std::vector<int>(total, 0),
                  std::vector<std::vector<NodeId>>(k)};
  const auto path_node = [length](int i, int j) {
    return i * length + j - 1;
  };
  for (int i = 0; i < gamma; ++i) {
    for (int j = 1; j <= length; ++j) ref.position[path_node(i, j)] = j;
    for (int j = 1; j < length; ++j) {
      ref.graph.add_edge(path_node(i, j), path_node(i, j + 1));
    }
  }
  for (int lvl = 1; lvl <= k; ++lvl) {
    std::vector<NodeId>& ids = ref.highway[lvl - 1];
    for (int j = 1, m = 0; j <= length; j += 1 << lvl, ++m) {
      const NodeId id = level_base[lvl] + m;
      ids.push_back(id);
      ref.position[id] = j;
      ref.level[id] = lvl;
      if (m > 0) ref.graph.add_edge(ids[m - 1], id);
    }
  }
  // Level 1 links to every path in its column, level i to level i - 1.
  for (int lvl = 1; lvl <= k; ++lvl) {
    for (const NodeId h : ref.highway[lvl - 1]) {
      const int j = ref.position[h];
      if (lvl == 1) {
        for (int i = 0; i < gamma; ++i) {
          ref.graph.add_edge(h, path_node(i, j));
        }
      } else {
        const int below = (j - 1) / (1 << (lvl - 1));
        ref.graph.add_edge(h, ref.highway[lvl - 2][below]);
      }
    }
  }
  // End-column cliques over all line endpoints, paths first.
  for (const bool right : {false, true}) {
    std::vector<NodeId> column;
    for (int i = 0; i < gamma; ++i) {
      column.push_back(path_node(i, right ? length : 1));
    }
    for (const std::vector<NodeId>& ids : ref.highway) {
      column.push_back(right ? ids.back() : ids.front());
    }
    for (std::size_t a = 0; a < column.size(); ++a) {
      for (std::size_t b = a + 1; b < column.size(); ++b) {
        ref.graph.add_edge(column[a], column[b]);
      }
    }
  }
  return ref;
}

const std::vector<std::pair<int, int>> kLbShapes{
    {1, 3}, {2, 5}, {3, 9}, {4, 17}, {2, 33}};

TEST(TopologyView, LbTopologyMatchesReference) {
  for (const auto& [gamma, length] : kLbShapes) {
    SCOPED_TRACE(::testing::Message()
                 << "gamma=" << gamma << " length=" << length);
    const MaterializedView reference(build_lb_reference(gamma, length).graph);
    expect_views_equal(core::LbTopologyView(gamma, length), reference);
    // The perfbench shim materializes the same network.
    expect_views_equal(
        MaterializedView(core::LbNetwork(gamma, length).topology()),
        reference);
  }
}

TEST(TopologyView, LbTopologyNodeHelpersMatchReference) {
  for (const auto& [gamma, length] : kLbShapes) {
    SCOPED_TRACE(::testing::Message()
                 << "gamma=" << gamma << " length=" << length);
    const core::LbTopologyView view(gamma, length);
    const LbReference ref = build_lb_reference(gamma, length);
    ASSERT_EQ(view.length(), length);
    ASSERT_EQ(view.highway_count(), static_cast<int>(ref.highway.size()));
    for (NodeId v = 0; v < view.node_count(); ++v) {
      EXPECT_EQ(view.position(v), ref.position[v]) << "node " << v;
      EXPECT_EQ(view.is_highway(v), ref.level[v] > 0) << "node " << v;
      EXPECT_EQ(ref.level[v] > 0
                    ? view.highway_node(ref.level[v], ref.position[v])
                    : view.path_node(v / length, ref.position[v]),
                v);
    }
    for (int l = 0; l < view.line_count(); ++l) {
      EXPECT_EQ(view.line_start(l),
                l < gamma ? l * length : ref.highway[l - gamma].front());
      EXPECT_EQ(view.line_end(l), l < gamma ? (l + 1) * length - 1
                                            : ref.highway[l - gamma].back());
    }
  }
}

TEST(TopologyView, GuardsRejectBadArguments) {
  const PathView view(5);
  EXPECT_THROW(view.degree(-1), ContractError);
  EXPECT_THROW(view.degree(5), ContractError);
  EXPECT_THROW(view.neighbor(0, 1), ContractError);  // endpoint: degree 1
  EXPECT_THROW(view.edge_at(2, 2), ContractError);
  EXPECT_THROW(view.edge(4), ContractError);
  EXPECT_THROW(PathView(0), ContractError);
  EXPECT_THROW(CycleView(2), ContractError);
  EXPECT_THROW(BalancedTreeView(3, 0), ContractError);
  EXPECT_THROW(GnmView(5, 3, 1), ContractError);  // below spanning backbone
  EXPECT_THROW(core::LbTopologyView(0, 9), ContractError);
  EXPECT_THROW(core::LbTopologyView(1, 2), ContractError);
  // 2^30 + 2 would round up to 2^31 + 1: rejected before any shift.
  EXPECT_THROW(core::LbTopologyView(1, (1 << 30) + 2), ContractError);
  // 2^30 + 1 is a valid length, but N(1, 2^30 + 1) overflows int node ids.
  EXPECT_THROW(core::LbTopologyView(1, (1 << 30) + 1), ContractError);
}

/// Order-sensitive mixing probe (same shape as the determinism suite's).
class MixProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    for (const Incoming& msg : inbox) {
      acc_ = acc_ * 1000003u + static_cast<std::uint64_t>(msg.port);
      for (const std::int64_t f : msg.data) {
        acc_ = acc_ * 131u + static_cast<std::uint64_t>(f);
      }
    }
    if (ctx.round() >= 6) {
      ctx.set_output(static_cast<std::int64_t>(acc_ >> 1));
      ctx.halt();
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      if (((ctx.id() + p + ctx.round()) & 3) == 0) continue;
      ctx.send(p, {ctx.id(), p});
    }
  }

 private:
  std::uint64_t acc_ = 1;
};

struct ProbeResult {
  std::vector<std::int64_t> outputs;
  RunStats stats;
  std::vector<std::vector<TracedMessage>> trace;
};

ProbeResult run_probe(Network& net, int threads) {
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<MixProgram>();
  });
  ProbeResult result;
  result.stats =
      net.run({.max_rounds = 20, .threads = threads, .record_trace = true});
  EXPECT_TRUE(result.stats.completed);
  result.outputs = net.outputs();
  result.trace = net.trace();
  return result;
}

void expect_network_over_view_matches_graph(
    std::shared_ptr<const TopologyView> view) {
  Network over_graph(materialize(*view), NetworkConfig{.bandwidth = 8});
  Network over_view(std::move(view), NetworkConfig{.bandwidth = 8});
  const ProbeResult expected = run_probe(over_graph, 1);
  for (const int threads : {1, 4}) {
    const ProbeResult got = run_probe(over_view, threads);
    EXPECT_EQ(got.outputs, expected.outputs) << "threads=" << threads;
    EXPECT_EQ(got.stats, expected.stats) << "threads=" << threads;
    EXPECT_EQ(got.trace, expected.trace) << "threads=" << threads;
  }
}

TEST(NetworkOverViews, PathViewIsBitIdenticalToGraph) {
  expect_network_over_view_matches_graph(std::make_shared<PathView>(33));
}

TEST(NetworkOverViews, CycleViewIsBitIdenticalToGraph) {
  expect_network_over_view_matches_graph(std::make_shared<CycleView>(32));
}

TEST(NetworkOverViews, TreeViewIsBitIdenticalToGraph) {
  expect_network_over_view_matches_graph(
      std::make_shared<BalancedTreeView>(40, 3));
}

TEST(NetworkOverViews, GnmViewIsBitIdenticalToGraph) {
  expect_network_over_view_matches_graph(std::make_shared<GnmView>(48, 110, 99));
}

TEST(NetworkOverViews, LbViewIsBitIdenticalToGraph) {
  expect_network_over_view_matches_graph(
      std::make_shared<core::LbTopologyView>(3, 9));
}

TEST(WeightedShardPlanTest, BoundariesCoverEveryItemOnce) {
  std::vector<std::int64_t> work;
  for (int i = 0; i < 5000; ++i) {
    work.push_back(1 + (i * 37) % 23);
  }
  const auto bounds = util::WeightedShardPlan::boundaries(work);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), work.size());
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    EXPECT_LT(bounds[s], bounds[s + 1]);  // shards nonempty, contiguous
  }
  EXPECT_LE(static_cast<int>(bounds.size()) - 1,
            util::WeightedShardPlan::kMaxShards);
}

TEST(WeightedShardPlanTest, BalancesSkewedWork) {
  // One heavy item among many light ones: the heavy item's shard must not
  // also swallow a large share of the light items.
  std::vector<std::int64_t> work(20000, 1);
  work[0] = 100000;
  const auto bounds = util::WeightedShardPlan::boundaries(work);
  ASSERT_GE(bounds.size(), 3u);
  // First shard: the heavy item (plus at most a few light ones).
  EXPECT_LE(bounds[1], 16u);
}

TEST(WeightedShardPlanTest, SmallInputsStaySingleShard) {
  EXPECT_EQ(util::WeightedShardPlan::boundaries({}),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(util::WeightedShardPlan::boundaries({5, 5, 5}),
            (std::vector<std::size_t>{0, 3}));
}

TEST(WeightedShardPlanTest, ClampsNonPositiveWorkToOne) {
  std::vector<std::int64_t> work(4096, 0);
  const auto bounds = util::WeightedShardPlan::boundaries(work);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.back(), work.size());
  // 4096 items of clamped work 1 = 16 shards of ~256.
  EXPECT_GT(bounds.size(), 8u);
}

TEST(WeightedShardPlanTest, PureFunctionOfWork) {
  std::vector<std::int64_t> work;
  for (int i = 0; i < 3000; ++i) {
    work.push_back(1 + i % 7);
  }
  EXPECT_EQ(util::WeightedShardPlan::boundaries(work),
            util::WeightedShardPlan::boundaries(work));
}

}  // namespace
}  // namespace qdc::congest
