// Determinism suite for the parallel round engine: outputs, RunStats and
// traces must be bit-identical for every thread count, on every topology.
// The probe program is deliberately order-sensitive (it folds its inbox
// non-commutatively), so any divergence in delivery order between thread
// counts fails loudly instead of averaging out.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>

#include "congest/network.hpp"
#include "congest/stats.hpp"
#include "congest/testing.hpp"
#include "congest/topology.hpp"
#include "core/lb_topology.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::congest {
namespace {

/// Floods deterministic pseudo-random payloads of varying size and folds
/// every received field into a non-commutative accumulator. Nodes halt at
/// staggered rounds (id mod 3) to exercise the halted-receiver paths.
class MixProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    for (const Incoming& msg : inbox) {
      acc_ = acc_ * 1000003u + static_cast<std::uint64_t>(msg.port);
      for (const std::int64_t f : msg.data) {
        acc_ = acc_ * 131u + static_cast<std::uint64_t>(f);
      }
    }
    const int stop = 6 + static_cast<int>(ctx.id() % 3);
    if (ctx.round() >= stop) {
      ctx.set_output(static_cast<std::int64_t>(acc_ >> 1));
      ctx.halt();
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      const std::uint64_t h = ctx.shared_hash(
          static_cast<std::int64_t>(ctx.round()) * 131071 +
          static_cast<std::int64_t>(ctx.id()) * 31 + p);
      if ((h & 3u) == 0) continue;  // stay quiet on some ports
      const int len = 1 + static_cast<int>(h % 3);
      Payload msg(static_cast<std::size_t>(len));
      msg[0] = ctx.id();
      for (int i = 1; i < len; ++i) {
        msg[static_cast<std::size_t>(i)] =
            static_cast<std::int64_t>((h >> (i * 7)) & 0xffff);
      }
      ctx.send(p, std::move(msg));
    }
  }

 private:
  std::uint64_t acc_ = 1;  // unsigned: the mixing fold wraps by design
};

struct RunResult {
  std::vector<std::int64_t> outputs;
  RunStats stats;
  std::vector<std::vector<TracedMessage>> trace;
};

RunResult run_mix_with_threads(Network& net, int threads) {
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<MixProgram>();
  });
  RunResult result;
  result.stats = net.run(
      {.max_rounds = 50, .threads = threads, .record_trace = true});
  EXPECT_TRUE(result.stats.completed);
  result.outputs = net.outputs();
  result.trace = net.trace();
  return result;
}

void expect_thread_count_invariance(Network& net) {
  const RunResult serial = run_mix_with_threads(net, 1);
  EXPECT_GT(serial.stats.messages, 0);
  for (const int threads : {2, 8}) {
    const RunResult parallel = run_mix_with_threads(net, threads);
    EXPECT_EQ(parallel.outputs, serial.outputs) << "threads=" << threads;
    EXPECT_EQ(parallel.stats, serial.stats) << "threads=" << threads;
    EXPECT_EQ(parallel.trace, serial.trace) << "threads=" << threads;
  }
}

TEST(EngineDeterminism, SeededRandomTopology) {
  Rng rng(7);
  Network net(graph::random_connected(96, 0.08, rng),
              NetworkConfig{.bandwidth = 8});
  expect_thread_count_invariance(net);
}

TEST(EngineDeterminism, PathTopology) {
  Network net(graph::path_graph(65), NetworkConfig{.bandwidth = 8});
  expect_thread_count_invariance(net);
}

TEST(EngineDeterminism, LbNetworkTopology) {
  Network net(std::make_shared<const core::LbTopologyView>(4, 9),
              NetworkConfig{.bandwidth = 8});
  expect_thread_count_invariance(net);
}

TEST(EngineDeterminism, RepeatedRunsAreIdentical) {
  // Arena and inbox buffers are reused across runs; reuse must not leak
  // state from one run into the next.
  Rng rng(11);
  Network net(graph::random_connected(40, 0.1, rng),
              NetworkConfig{.bandwidth = 8});
  const RunResult first = run_mix_with_threads(net, 2);
  const RunResult second = run_mix_with_threads(net, 2);
  EXPECT_EQ(first.outputs, second.outputs);
  EXPECT_EQ(first.stats, second.stats);
  EXPECT_EQ(first.trace, second.trace);
}

TEST(EngineDeterminism, HardwareThreadsOptionRuns) {
  Rng rng(13);
  Network net(graph::random_connected(40, 0.1, rng),
              NetworkConfig{.bandwidth = 8});
  const RunResult serial = run_mix_with_threads(net, 1);
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<MixProgram>();
  });
  // threads = 0 resolves to all hardware threads; results must not change.
  const RunStats stats =
      net.run({.max_rounds = 50, .threads = 0, .record_trace = true});
  EXPECT_EQ(stats, serial.stats);
  EXPECT_EQ(net.outputs(), serial.outputs);
  EXPECT_EQ(net.trace(), serial.trace);
}

TEST(EngineDeterminism, TraceOverrideAndRecordedFlag) {
  Network net(graph::path_graph(8), NetworkConfig{.bandwidth = 8});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<MixProgram>();
  });
  EXPECT_TRUE(net.run({.max_rounds = 50, .threads = 2}).completed);
  EXPECT_FALSE(net.trace_recorded());  // RunOptions default is off
  EXPECT_TRUE(net.trace().empty());

  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<MixProgram>();
  });
  EXPECT_TRUE(net.run({.max_rounds = 50, .threads = 2, .record_trace = true})
                  .completed);
  EXPECT_TRUE(net.trace_recorded());
  EXPECT_FALSE(net.trace().empty());
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

TEST(EngineDeterminism, ParallelEngineEnforcesBandwidth) {
  Network net(graph::path_graph(70), NetworkConfig{.bandwidth = 4});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<OversizeProgram>();
  });
  EXPECT_THROW(net.run({.max_rounds = 10, .threads = 8}), ModelError);
}

class IdleProgram : public NodeProgram {
 public:
  void on_round(NodeContext&, const std::vector<Incoming>&) override {}
};

TEST(EngineDeterminism, ParallelAuditorRejectsUnderchargedSend) {
  // The smuggled payload bypasses the send-path budget; the sharded
  // auditor recount must reject the round under the parallel engine too.
  Network net(graph::path_graph(70), NetworkConfig{.bandwidth = 2});
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<IdleProgram>();
  });
  testing::NetworkTestAccess::stage_unchecked(net, 0, 0, {1, 2, 3});
  EXPECT_THROW(net.run({.max_rounds = 2, .threads = 8}), ModelError);
}

/// Silent on every port: counts its own on_round calls and halts at a
/// node-specific round with that count as its output.
class CountRoundsProgram : public NodeProgram {
 public:
  static int halt_round(NodeId u) { return 1 + static_cast<int>(u % 7); }

  void on_round(NodeContext& ctx, const std::vector<Incoming>&) override {
    ++calls_;
    if (ctx.round() == halt_round(ctx.id())) {
      ctx.set_output(calls_);
      ctx.halt();
    }
  }

 private:
  std::int64_t calls_ = 0;
};

TEST(EngineDeterminism, DefaultRuleRunsEveryLiveNodeEveryRound) {
  // dist/ programs count rounds on nodes nobody messages: the default wake
  // rule must run every live node every round, so a node halting in round
  // r has run r + 1 times, at every thread count.
  Rng rng(31);
  Network net(graph::random_connected(96, 0.08, rng),
              NetworkConfig{.bandwidth = 8});
  std::vector<std::int64_t> expected;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    expected.push_back(CountRoundsProgram::halt_round(u) + 1);
  }
  const RunStats expected_stats{
      .rounds = 8, .messages = 0, .fields = 0, .completed = true};
  for (const int threads : {1, 2, 4}) {
    net.install([](NodeId, const NodeContext&) {
      return std::make_unique<CountRoundsProgram>();
    });
    EXPECT_EQ(net.run({.max_rounds = 20, .threads = threads}), expected_stats)
        << "threads=" << threads;
    EXPECT_EQ(net.outputs(), expected) << "threads=" << threads;
  }
}

/// Event-driven epidemic: sources idle (via request_wake) until their
/// launch round, then flood; every other node acts only on message
/// arrival, folding its inbox non-commutatively, forwarding once and
/// halting. Honors the frontier scheduling contract, so frontier runs
/// must be bit-identical to dense runs.
class EpidemicProgram : public NodeProgram {
 public:
  explicit EpidemicProgram(int launch) : launch_(launch) {}  // < 0: not a source

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (launch_ >= 0) {
      if (ctx.round() < launch_) {
        ctx.request_wake();
        return;
      }
      if (ctx.round() == launch_) {
        ctx.send_all({ctx.id(), 1});
        ctx.set_output(ctx.id());
        ctx.halt();
      }
      return;
    }
    if (inbox.empty()) return;  // silent and unwoken: a strict no-op
    std::uint64_t acc = 1;
    for (const Incoming& msg : inbox) {
      acc = acc * 1000003u + static_cast<std::uint64_t>(msg.port);
      for (const std::int64_t f : msg.data) {
        acc = acc * 131u + static_cast<std::uint64_t>(f);
      }
    }
    ctx.send_all({static_cast<std::int64_t>(acc & 0xffff),
                  static_cast<std::int64_t>(ctx.id() & 0xff)});
    ctx.set_output(static_cast<std::int64_t>(acc >> 1));
    ctx.halt();
  }

 private:
  int launch_;
};

struct OptRunResult {
  std::vector<std::optional<std::int64_t>> outputs;
  RunStats stats;
  std::vector<std::vector<TracedMessage>> trace;
};

OptRunResult run_epidemic(Network& net, int threads, bool frontier,
                          int max_rounds) {
  net.install([n = net.node_count()](NodeId u, const NodeContext&) {
    // Two staggered sources: node 0 launches in round 3, the middle node
    // in round 5 (its wave hits already-halted nodes, exercising the
    // delivered=false paths).
    const int launch = u == 0 ? 3 : u == n / 2 ? 5 : -1;
    return std::make_unique<EpidemicProgram>(launch);
  });
  OptRunResult result;
  result.stats = net.run({.max_rounds = max_rounds,
                          .threads = threads,
                          .record_trace = true,
                          .frontier = frontier});
  for (NodeId u = 0; u < net.node_count(); ++u) {
    result.outputs.push_back(net.output(u));
  }
  result.trace = net.trace();
  return result;
}

void expect_frontier_matches_dense(Network& net, int max_rounds = 400) {
  const OptRunResult dense = run_epidemic(net, 1, false, max_rounds);
  EXPECT_TRUE(dense.stats.completed);
  EXPECT_GT(dense.stats.messages, 0);
  for (const int threads : {1, 2, 4}) {
    const OptRunResult frontier = run_epidemic(net, threads, true, max_rounds);
    EXPECT_EQ(frontier.outputs, dense.outputs) << "threads=" << threads;
    EXPECT_EQ(frontier.stats, dense.stats) << "threads=" << threads;
    EXPECT_EQ(frontier.trace, dense.trace) << "threads=" << threads;
  }
  // And dense itself is thread-count invariant on this program.
  const OptRunResult dense4 = run_epidemic(net, 4, false, max_rounds);
  EXPECT_EQ(dense4.outputs, dense.outputs);
  EXPECT_EQ(dense4.stats, dense.stats);
  EXPECT_EQ(dense4.trace, dense.trace);
}

TEST(EngineDeterminism, FrontierMatchesDenseOnPath) {
  Network net(graph::path_graph(65), NetworkConfig{.bandwidth = 8});
  expect_frontier_matches_dense(net);
}

TEST(EngineDeterminism, FrontierMatchesDenseOnRandomTopology) {
  Rng rng(23);
  Network net(graph::random_connected(96, 0.08, rng),
              NetworkConfig{.bandwidth = 8});
  expect_frontier_matches_dense(net);
}

TEST(EngineDeterminism, FrontierMatchesDenseOnLbNetwork) {
  Network net(std::make_shared<const core::LbTopologyView>(4, 9),
              NetworkConfig{.bandwidth = 8});
  expect_frontier_matches_dense(net);
}

TEST(EngineDeterminism, FrontierMatchesDenseOnImplicitView) {
  // The same bit-identity over a formula-backed view: the implicit
  // topology must be indistinguishable from the materialized one.
  Network net(std::make_shared<PathView>(65), NetworkConfig{.bandwidth = 8});
  expect_frontier_matches_dense(net);
}

/// A TTL-limited flood that never halts: after the wave dies out, no node
/// is ever active again, so a frontier run must fast-forward the silent
/// remainder and still report the same rounds/stats/trace as a dense run
/// that idles through it.
class TtlFloodProgram : public NodeProgram {
 public:
  explicit TtlFloodProgram(bool source) : source_(source) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (source_) {
      if (ctx.round() == 0) {
        ctx.request_wake();
        return;
      }
      if (ctx.round() == 1) {
        ctx.send_all({4});  // TTL 4
        done_ = true;
      }
      return;
    }
    if (inbox.empty() || done_) return;
    done_ = true;
    std::int64_t ttl = 0;
    for (const Incoming& msg : inbox) {
      ttl = std::max(ttl, msg.data[0]);
    }
    ctx.set_output(ttl);
    if (ttl > 1) ctx.send_all({ttl - 1});
  }

 private:
  bool source_;
  bool done_ = false;
};

TEST(EngineDeterminism, FrontierFastForwardsSilentRemainder) {
  Rng rng(29);
  Network net(graph::random_connected(60, 0.06, rng),
              NetworkConfig{.bandwidth = 8});
  const auto run_ttl = [&net](bool frontier) {
    net.install([](NodeId u, const NodeContext&) {
      return std::make_unique<TtlFloodProgram>(u == 0);
    });
    OptRunResult result;
    result.stats = net.run(
        {.max_rounds = 40, .record_trace = true, .frontier = frontier});
    for (NodeId u = 0; u < net.node_count(); ++u) {
      result.outputs.push_back(net.output(u));
    }
    result.trace = net.trace();
    return result;
  };
  const OptRunResult dense = run_ttl(false);
  EXPECT_FALSE(dense.stats.completed);
  EXPECT_EQ(dense.stats.rounds, 40);
  const OptRunResult frontier = run_ttl(true);
  EXPECT_EQ(frontier.outputs, dense.outputs);
  EXPECT_EQ(frontier.stats, dense.stats);
  EXPECT_EQ(frontier.trace, dense.trace);
}

/// Node 0 sends one message in round 0. Node 1 reads it in round 1 and
/// asks to be woken, so it runs again in round 2 with nothing delivered.
/// Its output is 10 × (messages read in round 1) + (messages in round 2).
class WakeAfterReadProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.id() != 1) {
      if (ctx.id() == 0) ctx.send(0, {7});
      ctx.set_output(0);
      ctx.halt();
      return;
    }
    if (ctx.round() == 1) {
      read_ = static_cast<std::int64_t>(inbox.size());
      if (read_ == 1 && !std::ranges::equal(inbox[0].data, Payload{7})) {
        read_ = -1;
      }
      ctx.request_wake();
    } else if (ctx.round() == 2) {
      ctx.set_output(10 * read_ + static_cast<std::int64_t>(inbox.size()));
      ctx.halt();
    }
  }

 private:
  std::int64_t read_ = 0;
};

TEST(EngineDeterminism, WokenNodeWithoutDeliverySeesEmptyInbox) {
  // An inbox holds only the previous round's delivery: a node that woke
  // itself after reading a message must not read that message again.
  Network net(std::make_shared<PathView>(3), NetworkConfig{.bandwidth = 8});
  const RunStats expected{
      .rounds = 3, .messages = 1, .fields = 1, .completed = true};
  for (const bool frontier : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      net.install([](NodeId, const NodeContext&) {
        return std::make_unique<WakeAfterReadProgram>();
      });
      EXPECT_EQ(net.run({.max_rounds = 10,
                         .threads = threads,
                         .frontier = frontier}),
                expected)
          << "frontier=" << frontier << " threads=" << threads;
      EXPECT_EQ(net.output(1), 10)
          << "frontier=" << frontier << " threads=" << threads;
    }
  }
}

/// Every round, each node first sends on every port a message whose fields
/// encode (its id, the round, the field index), one field longer than the
/// round before, so its shard's arena grows while its inbox still views
/// the previous round's fields; only then does it read its inbox and check
/// each message against what that neighbour sent the round before. Its
/// output is the number of matching messages, plus 10^6 per mismatch.
class ViewAfterSendProgram : public NodeProgram {
 public:
  static constexpr int kSendRounds = 12;

  static std::int64_t field(NodeId from, int round, int i) {
    return (static_cast<std::int64_t>(from) << 32) + round * 64 + i;
  }

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    const int r = ctx.round();
    if (r < kSendRounds) {
      Payload out(static_cast<std::size_t>(r + 1));
      for (int i = 0; i <= r; ++i) {
        out[static_cast<std::size_t>(i)] = field(ctx.id(), r, i);
      }
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, out);
    }
    for (const Incoming& msg : inbox) {
      const NodeId from = ctx.neighbor(msg.port);
      bool same = msg.data.size() == static_cast<std::size_t>(r);
      for (int i = 0; same && i < r; ++i) {
        same = msg.data[static_cast<std::size_t>(i)] == field(from, r - 1, i);
      }
      checked_ += same ? 1 : 1000000;
    }
    if (r == kSendRounds) {
      ctx.set_output(checked_);
      ctx.halt();
    }
  }

 private:
  std::int64_t checked_ = 0;
};

TEST(EngineDeterminism, InboxViewsOutliveTheReadersOwnSends) {
  // 200 path nodes span several shards, so views cross shard arenas as
  // well as staying inside one.
  Network net(graph::path_graph(200), NetworkConfig{.bandwidth = 16});
  std::vector<std::int64_t> expected;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    expected.push_back(ViewAfterSendProgram::kSendRounds *
                       (u == 0 || u == net.node_count() - 1 ? 1 : 2));
  }
  // 398 messages a round; round r's carry r + 1 fields each.
  const RunStats expected_stats{.rounds = 13,
                                .messages = 12 * 398,
                                .fields = 78 * 398,
                                .completed = true};
  for (const bool frontier : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      net.install([](NodeId, const NodeContext&) {
        return std::make_unique<ViewAfterSendProgram>();
      });
      EXPECT_EQ(net.run({.max_rounds = 20,
                         .threads = threads,
                         .frontier = frontier}),
                expected_stats)
          << "frontier=" << frontier << " threads=" << threads;
      EXPECT_EQ(net.outputs(), expected)
          << "frontier=" << frontier << " threads=" << threads;
    }
  }
}

enum class SendForm { kBracedList, kPayload, kSpan, kSendAll };

/// Folds its inbox non-commutatively and sends {id, round, fold} on every
/// port through one of NodeContext's send forms.
class SendFormProgram : public NodeProgram {
 public:
  explicit SendFormProgram(SendForm form) : form_(form) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    for (const Incoming& msg : inbox) {
      acc_ = acc_ * 1000003u + static_cast<std::uint64_t>(msg.port);
      for (const std::int64_t f : msg.data) {
        acc_ = acc_ * 131u + static_cast<std::uint64_t>(f);
      }
    }
    if (ctx.round() == 6) {
      ctx.set_output(static_cast<std::int64_t>(acc_ >> 1));
      ctx.halt();
      return;
    }
    const std::int64_t id = ctx.id();
    const std::int64_t round = ctx.round();
    const auto fold = static_cast<std::int64_t>(acc_ & 0xffff);
    switch (form_) {
      case SendForm::kBracedList:
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, {id, round, fold});
        break;
      case SendForm::kPayload: {
        const Payload msg{id, round, fold};
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
        break;
      }
      case SendForm::kSpan: {
        const std::array<std::int64_t, 3> msg{id, round, fold};
        for (int p = 0; p < ctx.degree(); ++p) {
          ctx.send(p, std::span<const std::int64_t>(msg));
        }
        break;
      }
      case SendForm::kSendAll:
        ctx.send_all({id, round, fold});
        break;
    }
  }

 private:
  SendForm form_;
  std::uint64_t acc_ = 1;  // unsigned: the mixing fold wraps by design
};

TEST(EngineDeterminism, SendFormsAgree) {
  Rng rng(37);
  Network net(graph::random_connected(60, 0.1, rng),
              NetworkConfig{.bandwidth = 3});
  const auto run_form = [&net](SendForm form) {
    net.install([form](NodeId, const NodeContext&) {
      return std::make_unique<SendFormProgram>(form);
    });
    RunResult result;
    result.stats =
        net.run({.max_rounds = 10, .threads = 2, .record_trace = true});
    result.outputs = net.outputs();
    result.trace = net.trace();
    return result;
  };
  const RunResult braced = run_form(SendForm::kBracedList);
  EXPECT_TRUE(braced.stats.completed);
  EXPECT_GT(braced.stats.messages, 0);
  for (const SendForm form :
       {SendForm::kPayload, SendForm::kSpan, SendForm::kSendAll}) {
    const RunResult other = run_form(form);
    EXPECT_EQ(other.outputs, braced.outputs) << static_cast<int>(form);
    EXPECT_EQ(other.stats, braced.stats) << static_cast<int>(form);
    EXPECT_EQ(other.trace, braced.trace) << static_cast<int>(form);
  }
}

TEST(EngineDeterminism, UnauditedRunStillDelivers) {
  Rng rng(17);
  Network net(graph::random_connected(40, 0.1, rng),
              NetworkConfig{.bandwidth = 8});
  const RunResult audited = run_mix_with_threads(net, 2);
  net.install([](NodeId, const NodeContext&) {
    return std::make_unique<MixProgram>();
  });
  const RunStats stats = net.run({.max_rounds = 50,
                                  .threads = 2,
                                  .record_trace = true,
                                  .audit = false});
  EXPECT_EQ(stats, audited.stats);
  EXPECT_EQ(net.outputs(), audited.outputs);
  EXPECT_EQ(net.trace(), audited.trace);
}

}  // namespace
}  // namespace qdc::congest
