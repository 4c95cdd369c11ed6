// Model-violation paths and the ModelAuditor second accountant: a run whose
// bandwidth accounting is tampered with or whose send path under-charges
// must be rejected even though the primary send-path checks were bypassed.
#include <gtest/gtest.h>

#include "congest/model_auditor.hpp"
#include "congest/network.hpp"
#include "congest/stats.hpp"
#include "congest/testing.hpp"
#include "congest/topology.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/expect.hpp"

namespace qdc::congest {
namespace {

class IdleProgram : public NodeProgram {
 public:
  void on_round(NodeContext&, const std::vector<Incoming>&) override {}
};

class HaltNowProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    ctx.set_output(0);
    ctx.halt();
  }
};

/// Fills the whole per-edge budget with legitimate sends each round.
class FullBudgetProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    Payload all(static_cast<std::size_t>(ctx.bandwidth()), 1);
    ctx.send(0, std::move(all));
    ctx.set_output(0);
    ctx.halt();
  }
};

TEST(ModelViolations, OversendOnOneEdgeThrows) {
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 3});
  class Oversend : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
      ctx.send(0, {1, 2});
      ctx.send(0, {3});
      ctx.send(0, {4});  // field 4 of 3: over budget on this edge
    }
  };
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<Oversend>();
  });
  EXPECT_THROW(net.run({.max_rounds = 5}), ModelError);
}

TEST(ModelViolations, SendAfterHaltThrows) {
  Network net(graph::path_graph(2), NetworkConfig{});
  class SendAfterHalt : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
      ctx.halt();
      ctx.send(0, {1});
    }
  };
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<SendAfterHalt>();
  });
  EXPECT_THROW(net.run({.max_rounds = 5}), ContractError);
}

TEST(ModelViolations, OutputsWithMissingOutputThrows) {
  Network net(graph::path_graph(3), NetworkConfig{});
  // Only node 0 produces an output.
  net.install([](NodeId id, const NodeContext&) -> std::unique_ptr<NodeProgram> {
    if (id == 0) return std::make_unique<HaltNowProgram>();
    class HaltSilent : public NodeProgram {
     public:
      void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
        ctx.halt();
      }
    };
    return std::make_unique<HaltSilent>();
  });
  EXPECT_TRUE(net.run({.max_rounds = 3}).completed);
  EXPECT_THROW(net.outputs(), ModelError);
}

TEST(DefaultNodeContext, MethodsThrowInsteadOfSegfaulting) {
  NodeContext ctx;
  EXPECT_EQ(ctx.degree(), 0);
  EXPECT_THROW(ctx.node_count(), ContractError);
  EXPECT_THROW(ctx.bandwidth(), ContractError);
  EXPECT_THROW(ctx.round(), ContractError);
  EXPECT_THROW(ctx.shared_bit(0), ContractError);
  EXPECT_THROW(ctx.shared_hash(0), ContractError);
  EXPECT_THROW(ctx.send(0, {1}), ContractError);    // also a bad port
  EXPECT_THROW(ctx.neighbor(0), ContractError);
  EXPECT_THROW(ctx.edge_weight(0), ContractError);
  EXPECT_THROW(ctx.edge_in_subnetwork(0), ContractError);
}

TEST(ModelAuditorTest, TamperedFieldTotalIsRejected) {
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FullBudgetProgram>();
  });
  // Under-charge by one field: exactly the tampering that would fake a
  // lower-bound violation. The second accountant must notice.
  testing::NetworkTestAccess::set_stats_tamper(
      net, [](RunStats& stats) { stats.fields -= 1; });
  EXPECT_THROW(net.run({.max_rounds = 5}), ModelError);
}

TEST(ModelAuditorTest, TamperedMessageCountIsRejected) {
  Network net(graph::path_graph(2), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FullBudgetProgram>();
  });
  testing::NetworkTestAccess::set_stats_tamper(
      net, [](RunStats& stats) { stats.messages += 1; });
  EXPECT_THROW(net.run({.max_rounds = 5}), ModelError);
}

TEST(ModelAuditorTest, UntamperedRunStillPasses) {
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FullBudgetProgram>();
  });
  // identity tamper
  testing::NetworkTestAccess::set_stats_tamper(net, [](RunStats&) {});
  EXPECT_TRUE(net.run({.max_rounds = 5}).completed);
}

TEST(ModelAuditorTest, UnderchargedSendPathIsRejected) {
  // A payload staged without charging the budget slips past the send-path
  // QDC_CHECK; the auditor recounts the delivered fields and rejects the
  // round.
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 2});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<IdleProgram>();
  });
  testing::NetworkTestAccess::stage_unchecked(net, 0, 0, {1, 2, 3});
  EXPECT_THROW(net.run({.max_rounds = 1}), ModelError);
}

TEST(ModelAuditorTest, UnderchargeOnTopOfFullBudgetIsRejected) {
  // The program legitimately fills the budget; one extra smuggled field
  // tips the recount over B even though each payload alone is within B.
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<FullBudgetProgram>();
  });
  testing::NetworkTestAccess::stage_unchecked(net, 0, 0, {99});
  EXPECT_THROW(net.run({.max_rounds = 5}), ModelError);
}

TEST(ModelAuditorTest, HaltedSenderIsRejected) {
  for (const bool frontier : {false, true}) {
    Network net(graph::path_graph(2), NetworkConfig{});
    net.install([](NodeId, const NodeContext&) {
      return std::make_unique<HaltNowProgram>();
    });
    EXPECT_TRUE(net.run({.max_rounds = 3, .frontier = frontier}).completed);
    // Everyone has halted, so no node computes; a message smuggled out of a
    // halted node must still be delivered, and caught by the
    // halted-nodes-are-silent audit, under either wake rule.
    testing::NetworkTestAccess::stage_unchecked(net, 0, 0, {1});
    EXPECT_THROW(net.run({.max_rounds = 1, .frontier = frontier}), ModelError)
        << "frontier=" << frontier;
  }
}

TEST(ModelAuditorTest, HaltedSenderInAnIdleShardIsRejected) {
  // A 300-node path spans several shards. After one round the lower half
  // has halted and the upper half idles, so the first shards hold no live
  // node; a message smuggled out of node 0 must still be delivered and
  // audited under either wake rule.
  class HaltLowerHalf : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
      if (ctx.id() < ctx.node_count() / 2) {
        ctx.set_output(0);
        ctx.halt();
      }
    }
  };
  for (const bool frontier : {false, true}) {
    Network net(graph::path_graph(300), NetworkConfig{});
    net.install([](NodeId, const NodeContext&) {
      return std::make_unique<HaltLowerHalf>();
    });
    EXPECT_FALSE(net.run({.max_rounds = 1, .frontier = frontier}).completed);
    testing::NetworkTestAccess::stage_unchecked(net, 0, 0, {1});
    EXPECT_THROW(net.run({.max_rounds = 3, .frontier = frontier}), ModelError)
        << "frontier=" << frontier;
  }
}

TEST(ModelAuditorTest, WithinBudgetInjectionPassesTheRecount) {
  // Control case: an injected payload that stays within B is a legitimate
  // message as far as the model is concerned, so the audit accepts it.
  Network net(graph::path_graph(2), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<HaltNowProgram>();
  });
  testing::NetworkTestAccess::stage_unchecked(net, 0, 0, {1, 2});
  EXPECT_TRUE(net.run({.max_rounds = 3}).completed);
}

TEST(ModelAuditorTest, StandaloneAuditorChecksEdgeEndpoints) {
  const MaterializedView view(graph::path_graph(3));  // edges: 0-1, 1-2
  ModelAuditor auditor(view, 2);
  auditor.begin_round(0, {});
  // Edge 0 connects nodes 0 and 1; claiming it carried 0 -> 2 is a lie.
  EXPECT_THROW(auditor.on_message(0, 2, 0, 1, true, false), ModelError);
}

TEST(ModelAuditorTest, StandaloneAuditorSeparatesDirections) {
  const MaterializedView view(graph::path_graph(2));
  ModelAuditor auditor(view, 2);
  auditor.begin_round(0, {});
  // B fields in each direction of the same edge is legal...
  auditor.on_message(0, 1, 0, 2, true, false);
  auditor.on_message(1, 0, 0, 2, true, false);
  auditor.end_round();
  // ...but B+1 in one direction is not.
  auditor.begin_round(1, {});
  auditor.on_message(0, 1, 0, 2, true, false);
  auditor.on_message(0, 1, 0, 1, true, false);
  EXPECT_THROW(auditor.end_round(), ModelError);
}

TEST(ModelAuditorTest, StandaloneAuditorCrossChecksStats) {
  const MaterializedView view(graph::path_graph(2));
  ModelAuditor auditor(view, 4);
  auditor.begin_round(0, {});
  auditor.on_message(0, 1, 0, 3, true, false);
  auditor.end_round();
  EXPECT_EQ(auditor.messages(), 1);
  EXPECT_EQ(auditor.fields(), 3);
  EXPECT_EQ(auditor.rounds(), 1);

  RunStats good{.rounds = 1, .messages = 1, .fields = 3, .completed = true};
  auditor.verify(good);  // must not throw

  RunStats bad = good;
  bad.fields = 2;
  EXPECT_THROW(auditor.verify(bad), ModelError);
}

TEST(ModelAuditorTest, StandaloneFrontierRejectsNonComputedSender) {
  const MaterializedView view(graph::path_graph(2));
  ModelAuditor auditor(view, 2);
  std::vector<graph::NodeId> computed = {1};
  auditor.begin_round(0, {.computed = &computed});
  // Node 0 is outside the declared frontier, so it must stay silent.
  EXPECT_THROW(auditor.on_message(0, 1, 0, 1, true, false), ModelError);
}

TEST(ModelAuditorTest, StandaloneFrontierRejectsComputedHaltedNode) {
  const MaterializedView view(graph::path_graph(2));
  ModelAuditor auditor(view, 2);
  std::vector<graph::NodeId> halted = {0};
  std::vector<graph::NodeId> computed = {0, 1};
  const RoundActivity activity{.newly_halted = &halted,
                               .computed = &computed};
  EXPECT_THROW(auditor.begin_round(0, activity), ModelError);
}

TEST(ModelAuditorTest, StandaloneFrontierRequiresReceiversToRun) {
  const MaterializedView view(graph::path_graph(3));
  ModelAuditor auditor(view, 2);
  std::vector<graph::NodeId> all = {0, 1, 2};
  auditor.begin_round(0, {.computed = &all});
  auditor.on_message(0, 1, 0, 1, true, false);
  auditor.end_round();
  // Node 1 was delivered a message last round; a computed set without it
  // is a tampered or broken schedule.
  std::vector<graph::NodeId> skips_receiver = {0, 2};
  const RoundActivity next{.computed = &skips_receiver};
  EXPECT_THROW(auditor.begin_round(1, next), ModelError);
}

TEST(ModelAuditorTest, StandaloneFastForwardRejectsPendingReceiver) {
  const MaterializedView view(graph::path_graph(2));
  ModelAuditor auditor(view, 2);
  std::vector<graph::NodeId> all = {0, 1};
  auditor.begin_round(0, {.computed = &all});
  auditor.on_message(0, 1, 0, 1, true, false);
  auditor.end_round();
  EXPECT_THROW(auditor.fast_forward_silent(10), ModelError);
}

TEST(ModelAuditorTest, StandaloneFastForwardAfterSilentRoundIsLegal) {
  const MaterializedView view(graph::path_graph(2));
  ModelAuditor auditor(view, 2);
  std::vector<graph::NodeId> all = {0, 1};
  auditor.begin_round(0, {.computed = &all});
  auditor.end_round();
  auditor.fast_forward_silent(10);
  EXPECT_EQ(auditor.rounds(), 10);
}

/// Node 0 messages node 1 in round 0 and halts; every other node halts in
/// round 0 too, except a ticker (the last node) that stays awake a few
/// rounds so the event-driven rule keeps executing audited rounds.
class SendToNeighborProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0) {
      if (ctx.id() == 0) ctx.send(0, {7});
      if (ctx.id() == ctx.node_count() - 1) {
        ctx.request_wake();
        return;
      }
      if (ctx.id() != 1) {
        ctx.set_output(0);
        ctx.halt();
      }
      return;
    }
    if (ctx.id() == ctx.node_count() - 1) {
      if (ctx.round() < 3) {
        ctx.request_wake();
      } else {
        ctx.set_output(0);
        ctx.halt();
      }
      return;
    }
    if (!inbox.empty()) {
      ctx.set_output(inbox[0].data[0]);
      ctx.halt();
    }
  }
};

TEST(ModelAuditorTest, FrontierSuppressedReceiverIsRejected) {
  // Drop node 1 from every frontier even though node 0 messages it: the
  // auditor must reject the round in which node 1 should have computed.
  Network net(graph::path_graph(4), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<SendToNeighborProgram>();
  });
  testing::NetworkTestAccess::suppress_frontier_node(net, 1);
  EXPECT_THROW(net.run({.max_rounds = 8, .frontier = true}), ModelError);
}

TEST(ModelAuditorTest, FrontierSuppressionCannotHideBehindFastForward) {
  // Same tampering on a 3-node path, where no ticker keeps the loop busy:
  // the engine would fast-forward the "silent" remainder, but node 1's
  // inbox is pending, so the fast-forward claim is rejected too.
  Network net(graph::path_graph(3), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) -> std::unique_ptr<NodeProgram> {
    class Local : public NodeProgram {
     public:
      void on_round(NodeContext& ctx,
                    const std::vector<Incoming>& inbox) override {
        if (ctx.round() == 0) {
          if (ctx.id() == 0) ctx.send(0, {7});
          if (ctx.id() != 1) {
            ctx.set_output(0);
            ctx.halt();
          }
          return;
        }
        if (!inbox.empty()) {
          ctx.set_output(inbox[0].data[0]);
          ctx.halt();
        }
      }
    };
    return std::make_unique<Local>();
  });
  testing::NetworkTestAccess::suppress_frontier_node(net, 1);
  EXPECT_THROW(net.run({.max_rounds = 8, .frontier = true}), ModelError);
}

TEST(ModelAuditorTest, UnsuppressedFrontierControlRunPasses) {
  Network net(graph::path_graph(4), NetworkConfig{});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<SendToNeighborProgram>();
  });
  const auto stats = net.run({.max_rounds = 8, .frontier = true});
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(net.output(1).value(), 7);
}

}  // namespace
}  // namespace qdc::congest
