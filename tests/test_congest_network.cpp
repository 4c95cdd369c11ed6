// Tests for the CONGEST(B) simulator: delivery semantics, bandwidth
// enforcement, halting, tracing, shared randomness.
#include <gtest/gtest.h>

#include "congest/network.hpp"
#include "congest/stats.hpp"
#include "congest/topology.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::congest {
namespace {

/// Floods the maximum id seen; every node outputs it (leader election by
/// flooding). Halts after a fixed number of rounds given by node_count().
class FloodMaxProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0) {
      best_ = ctx.id();
      ctx.send_all({best_});
      return;
    }
    bool improved = false;
    for (const Incoming& msg : inbox) {
      if (msg.data[0] > best_) {
        best_ = msg.data[0];
        improved = true;
      }
    }
    if (improved) {
      ctx.send_all({best_});
    }
    if (ctx.round() >= ctx.node_count()) {
      ctx.set_output(best_);
      ctx.halt();
    }
  }

 private:
  std::int64_t best_ = -1;
};

TEST(Network, FloodMaxElectsMaxId) {
  Rng rng(1);
  const auto topo = graph::random_connected(20, 0.15, rng);
  Network net(topo, NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FloodMaxProgram>();
  });
  const RunStats stats = net.run({.max_rounds = 100});
  EXPECT_TRUE(stats.completed);
  for (const auto v : net.outputs()) {
    EXPECT_EQ(v, 19);
  }
}

/// Sends one oversized message to trigger bandwidth enforcement.
class OversizeProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    Payload big(static_cast<std::size_t>(ctx.bandwidth() + 1), 7);
    ctx.send(0, std::move(big));
    ctx.halt();
  }
};

TEST(Network, EnforcesBandwidth) {
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<OversizeProgram>();
  });
  EXPECT_THROW(net.run({.max_rounds = 10}), ModelError);
}

/// Sends exactly B fields split over two messages: allowed. A third field
/// would not be.
class ExactBudgetProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    ctx.send(0, {1});
    ctx.send(0, {2});
    EXPECT_THROW(ctx.send(0, {3}), ModelError);
    ctx.set_output(0);
    ctx.halt();
  }
};

TEST(Network, PerEdgeBudgetIsPerRoundAndPerDirection) {
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 2});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<ExactBudgetProgram>();
  });
  const auto stats = net.run({.max_rounds = 10});
  EXPECT_TRUE(stats.completed);
}

/// Round-stamped ping-pong between the two endpoints of an edge; verifies
/// that a message sent in round r is received in round r+1.
class PingPongProgram : public NodeProgram {
 public:
  explicit PingPongProgram(bool starter) : starter_(starter) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0 && starter_) {
      ctx.send(0, {0});
      return;
    }
    for (const Incoming& msg : inbox) {
      EXPECT_EQ(msg.data[0], ctx.round() - 1);
      if (ctx.round() < 6) {
        ctx.send(msg.port, {ctx.round()});
      }
    }
    if (ctx.round() >= 6) {
      ctx.set_output(1);
      ctx.halt();
    }
  }

 private:
  bool starter_;
};

TEST(Network, MessagesArriveNextRound) {
  Network net(graph::path_graph(2), NetworkConfig{});
  net.install([](NodeId id, const NodeContext&) {
    return std::make_unique<PingPongProgram>(id == 0);
  });
  EXPECT_TRUE(net.run({.max_rounds = 20}).completed);
}

class NeverHaltProgram : public NodeProgram {
 public:
  void on_round(NodeContext&, const std::vector<Incoming>&) override {}
};

TEST(Network, RunStopsAtBudgetWithoutCompletion) {
  Network net(graph::path_graph(3), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<NeverHaltProgram>();
  });
  const auto stats = net.run({.max_rounds = 5});
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.rounds, 5);
}

class SharedCoinProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    std::int64_t coins = 0;
    for (int k = 0; k < 16; ++k) {
      coins = coins * 2 + (ctx.shared_bit(k) ? 1 : 0);
    }
    ctx.set_output(coins);
    ctx.halt();
  }
};

TEST(Network, SharedRandomnessIsIdenticalAcrossNodes) {
  Network net(graph::path_graph(5), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<SharedCoinProgram>();
  });
  EXPECT_TRUE(net.run({.max_rounds = 3}).completed);
  const auto outs = net.outputs();
  for (const auto v : outs) {
    EXPECT_EQ(v, outs[0]);
  }
  // And the tape should not be degenerate (all zeros / all ones).
  EXPECT_NE(outs[0], 0);
  EXPECT_NE(outs[0], (1 << 16) - 1);
}

class TalkOnceProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send_all({1, 2, 3});
    }
    if (ctx.round() == 2) {
      ctx.set_output(0);
      ctx.halt();
    }
  }
};

TEST(Network, TraceRecordsMessages) {
  Network net(graph::star_graph(4), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<TalkOnceProgram>();
  });
  const auto stats = net.run({.max_rounds = 10, .record_trace = true});
  EXPECT_TRUE(stats.completed);
  ASSERT_GE(net.trace().size(), 1u);
  EXPECT_EQ(net.trace()[0].size(), 3u);  // hub sent to 3 leaves
  for (const TracedMessage& m : net.trace()[0]) {
    EXPECT_EQ(m.from, 0);
    EXPECT_EQ(m.fields, 3);
  }
  EXPECT_EQ(stats.messages, 3);
  EXPECT_EQ(stats.fields, 9);
}

TEST(Network, SubnetworkIndicatorVisible) {
  graph::Graph topo = graph::path_graph(3);
  Network net(topo, NetworkConfig{});
  graph::EdgeSubset m(2);
  m.insert(0);
  net.set_subnetwork(m);

  class Check : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
      std::int64_t mask = 0;
      for (int p = 0; p < ctx.degree(); ++p) {
        if (ctx.edge_in_subnetwork(p)) mask |= (1 << p);
      }
      ctx.set_output(mask);
      ctx.halt();
    }
  };
  net.install(
      [](NodeId, const NodeContext&) { return std::make_unique<Check>(); });
  EXPECT_TRUE(net.run({.max_rounds = 3}).completed);
  // Node 0 sees edge 0 in M; node 2 sees edge 1 not in M.
  EXPECT_EQ(net.output(0).value(), 1);
  EXPECT_EQ(net.output(2).value(), 0);
}

TEST(Network, InputsArePerNode) {
  Network net(graph::path_graph(2), NetworkConfig{});
  net.set_input(0, {42});
  net.set_input(1, {7});
  class Echo : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
      ctx.set_output(ctx.input().empty() ? -1 : ctx.input()[0]);
      ctx.halt();
    }
  };
  net.install(
      [](NodeId, const NodeContext&) { return std::make_unique<Echo>(); });
  EXPECT_TRUE(net.run({.max_rounds = 2}).completed);
  EXPECT_EQ(net.output(0).value(), 42);
  EXPECT_EQ(net.output(1).value(), 7);
}

TEST(Network, RejectsInvalidRunOptions) {
  Network net(graph::path_graph(5), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<SharedCoinProgram>();
  });
  EXPECT_THROW(net.run({.max_rounds = -1}), ContractError);
  EXPECT_THROW(net.run({.max_rounds = 3, .threads = -2}), ContractError);
  EXPECT_THROW(net.run({.max_rounds = 3,
                        .record_trace = true,
                        .audit = false,
                        .frontier = true}),
               ContractError);
  // The same options with the audit on are legal.
  const auto stats =
      net.run({.max_rounds = 3, .record_trace = true, .frontier = true});
  EXPECT_TRUE(stats.completed);
}

TEST(Network, BuiltOverImplicitViewRuns) {
  Network net(std::make_shared<PathView>(6), NetworkConfig{});
  EXPECT_EQ(net.node_count(), 6);
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FloodMaxProgram>();
  });
  const auto stats = net.run({.max_rounds = 100});
  EXPECT_TRUE(stats.completed);
  for (const auto v : net.outputs()) {
    EXPECT_EQ(v, 5);
  }
}

}  // namespace
}  // namespace qdc::congest
