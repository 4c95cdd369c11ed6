#include "dist/tree.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace qdc::dist {

namespace {

// --- BFS tree construction -------------------------------------------------

enum BfsTag : std::int64_t {
  kWave = 1,    // {tag, sender_depth}
  kAccept = 2,  // {tag}
  kReject = 3,  // {tag}
  kDone = 4,    // {tag, subtree_height}
  kFinish = 5,  // {tag, tree_height}
};

class BfsTreeProgram : public congest::NodeProgram {
 public:
  explicit BfsTreeProgram(NodeId root) : root_(root) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0 && ctx.id() == root_) {
      adopt(ctx, /*parent_port=*/-1, /*depth=*/0);
    }
    for (const Incoming& msg : inbox) {
      switch (msg.data[0]) {
        case kWave:
          if (depth_ < 0) {
            adopt(ctx, msg.port, static_cast<int>(msg.data[1]) + 1);
          } else {
            ctx.send(msg.port, {kReject});
          }
          break;
        case kAccept:
          children_.push_back(msg.port);
          --pending_replies_;
          break;
        case kReject:
          --pending_replies_;
          break;
        case kDone:
          subtree_height_ = std::max(
              subtree_height_, static_cast<int>(msg.data[1]) + 1);
          ++children_done_;
          break;
        case kFinish:
          tree_height_ = static_cast<int>(msg.data[1]);
          finish(ctx);
          return;
        default:
          QDC_CHECK(false, "BfsTreeProgram: unknown tag");
      }
    }
    maybe_report_done(ctx);
  }

  LocalTree local_tree() const {
    LocalTree t;
    t.is_root = depth_ == 0;
    t.parent_port = parent_port_;
    t.children_ports = children_;
    t.depth = depth_;
    t.height = tree_height_;
    return t;
  }

 private:
  void adopt(NodeContext& ctx, int parent_port, int depth) {
    depth_ = depth;
    parent_port_ = parent_port;
    if (parent_port >= 0) {
      ctx.send(parent_port, {kAccept});
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      if (p == parent_port) continue;
      ctx.send(p, {kWave, depth_});
      ++pending_replies_;
    }
  }

  void maybe_report_done(NodeContext& ctx) {
    if (depth_ < 0 || pending_replies_ > 0 || done_sent_) return;
    if (children_done_ < static_cast<int>(children_.size())) return;
    done_sent_ = true;
    if (depth_ == 0) {
      // Root: the whole tree is built.
      tree_height_ = subtree_height_;
      finish(ctx);
    } else {
      ctx.send(parent_port_, {kDone, subtree_height_});
    }
  }

  void finish(NodeContext& ctx) {
    for (int c : children_) {
      ctx.send(c, {kFinish, tree_height_});
    }
    ctx.set_output(depth_);
    ctx.halt();
  }

  NodeId root_;
  int depth_ = -1;
  int parent_port_ = -1;
  std::vector<int> children_;
  int pending_replies_ = 0;
  int children_done_ = 0;
  int subtree_height_ = 0;
  int tree_height_ = 0;
  bool done_sent_ = false;
};

// --- Aggregation ------------------------------------------------------------

enum AggTag : std::int64_t {
  kUp = 11,    // {tag, v0, v1, ...}
  kDown = 12,  // {tag, v0, v1, ...}
};

std::int64_t combine_one(Combiner c, std::int64_t a, std::int64_t b) {
  switch (c) {
    case Combiner::kSum:
      return a + b;
    case Combiner::kMin:
      return std::min(a, b);
    case Combiner::kMax:
      return std::max(a, b);
    case Combiner::kAnd:
      return (a != 0 && b != 0) ? 1 : 0;
    case Combiner::kOr:
      return (a != 0 || b != 0) ? 1 : 0;
  }
  QDC_CHECK(false, "combine_one: bad combiner");
}

class AggregateProgram : public congest::NodeProgram {
 public:
  AggregateProgram(LocalTree tree, std::vector<Combiner> combiners,
                   Payload contribution)
      : tree_(std::move(tree)),
        combiners_(std::move(combiners)),
        acc_(std::move(contribution)) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    for (const Incoming& msg : inbox) {
      switch (msg.data[0]) {
        case kUp: {
          for (std::size_t i = 0; i < combiners_.size(); ++i) {
            acc_[i] = combine_one(combiners_[i], acc_[i],
                                  msg.data[i + 1]);
          }
          ++children_reported_;
          break;
        }
        case kDown: {
          acc_.assign(msg.data.begin() + 1, msg.data.end());
          publish(ctx);
          return;
        }
        default:
          QDC_CHECK(false, "AggregateProgram: unknown tag");
      }
    }
    if (!up_sent_ &&
        children_reported_ == static_cast<int>(tree_.children_ports.size())) {
      up_sent_ = true;
      if (tree_.is_root) {
        publish(ctx);
      } else {
        Payload msg{kUp};
        msg.insert(msg.end(), acc_.begin(), acc_.end());
        ctx.send(tree_.parent_port, msg);
      }
    }
  }

  const Payload& result() const { return acc_; }

 private:
  void publish(NodeContext& ctx) {
    Payload msg{kDown};
    msg.insert(msg.end(), acc_.begin(), acc_.end());
    for (int c : tree_.children_ports) {
      ctx.send(c, msg);
    }
    ctx.set_output(acc_.empty() ? 0 : acc_[0]);
    ctx.halt();
  }

  LocalTree tree_;
  std::vector<Combiner> combiners_;
  Payload acc_;
  int children_reported_ = 0;
  bool up_sent_ = false;
};

// --- Broadcast ----------------------------------------------------------------

class BroadcastProgram : public congest::NodeProgram {
 public:
  BroadcastProgram(LocalTree tree, Payload value)
      : tree_(std::move(tree)), value_(std::move(value)) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (tree_.is_root && ctx.round() == 0) {
      forward(ctx, value_);
      return;
    }
    for (const Incoming& msg : inbox) {
      Payload v(msg.data.begin() + 1, msg.data.end());
      forward(ctx, v);
      return;
    }
  }

  const Payload& received() const { return received_; }

 private:
  void forward(NodeContext& ctx, const Payload& v) {
    received_ = v;
    Payload msg{kDown};
    msg.insert(msg.end(), v.begin(), v.end());
    for (int c : tree_.children_ports) {
      ctx.send(c, msg);
    }
    ctx.set_output(v.empty() ? 0 : v[0]);
    ctx.halt();
  }

  LocalTree tree_;
  Payload value_;
  Payload received_;
};

// --- Pipelined gather --------------------------------------------------------

enum GatherTag : std::int64_t {
  kItem = 13,       // {tag, f0, f1, ...}
  kGatherDone = 14, // {tag}
};

class GatherProgram : public congest::NodeProgram {
 public:
  GatherProgram(LocalTree tree, int rate, std::vector<Payload> own_items)
      : tree_(std::move(tree)), rate_(rate) {
    // The root's own items are already "collected"; everyone else queues
    // theirs for upstreaming.
    if (tree_.is_root) {
      collected_ = std::move(own_items);
    } else {
      queue_ = std::move(own_items);
    }
  }

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    for (const Incoming& msg : inbox) {
      switch (msg.data[0]) {
        case kItem: {
          Payload item(msg.data.begin() + 1, msg.data.end());
          if (tree_.is_root) {
            collected_.push_back(std::move(item));
          } else {
            queue_.push_back(std::move(item));
          }
          break;
        }
        case kGatherDone:
          ++children_done_;
          break;
        default:
          QDC_CHECK(false, "GatherProgram: unknown tag");
      }
    }
    if (tree_.is_root) {
      if (children_done_ == static_cast<int>(tree_.children_ports.size())) {
        ctx.set_output(static_cast<std::int64_t>(collected_.size()));
        ctx.halt();
      }
      return;
    }
    int sent = 0;
    for (; sent < rate_ && !queue_.empty(); ++sent) {
      Payload msg{kItem};
      msg.insert(msg.end(), queue_.back().begin(), queue_.back().end());
      ctx.send(tree_.parent_port, msg);
      queue_.pop_back();
    }
    // The done marker waits for an item-free round so the edge budget is
    // never exceeded.
    if (sent == 0 && queue_.empty() &&
        children_done_ == static_cast<int>(tree_.children_ports.size())) {
      ctx.send(tree_.parent_port, {kGatherDone});
      ctx.set_output(0);
      ctx.halt();
    }
  }

  std::vector<Payload> take_collected() { return std::move(collected_); }

 private:
  LocalTree tree_;
  int rate_;
  std::vector<Payload> queue_;
  int children_done_ = 0;
  std::vector<Payload> collected_;
};

}  // namespace

GatherResult run_gather(Network& net, const BfsTreeResult& tree,
                        int item_size,
                        const std::vector<std::vector<Payload>>& items,
                        const congest::RunOptions& base) {
  QDC_EXPECT(static_cast<int>(items.size()) == net.node_count(),
             "run_gather: one item list per node required");
  QDC_EXPECT(item_size >= 1, "run_gather: bad item size");
  QDC_EXPECT(item_size + 1 <= net.config().bandwidth,
             "run_gather: item does not fit the bandwidth");
  const int rate = net.config().bandwidth / (item_size + 1);
  std::int64_t total_items = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const Payload& it : items[static_cast<std::size_t>(u)]) {
      QDC_EXPECT(static_cast<int>(it.size()) == item_size,
                 "run_gather: item size mismatch");
    }
    total_items +=
        static_cast<std::int64_t>(items[static_cast<std::size_t>(u)].size());
  }
  net.install([&](NodeId u, const NodeContext&) {
    return std::make_unique<GatherProgram>(
        tree.local[static_cast<std::size_t>(u)], rate,
        items[static_cast<std::size_t>(u)]);
  });
  congest::RunOptions options = base;
  options.max_rounds =
      static_cast<int>(4 * net.node_count() + 2 * total_items + 20);
  const auto stats = net.run(options);
  QDC_CHECK(stats.completed, "run_gather: did not complete");
  auto* root_prog = dynamic_cast<GatherProgram*>(net.program(tree.root));
  GatherResult result;
  result.items = root_prog->take_collected();
  result.stats = stats;
  return result;
}

BfsTreeResult build_bfs_tree(Network& net, NodeId root,
                             const congest::RunOptions& base) {
  QDC_EXPECT(root >= 0 && root < net.node_count(),
             "build_bfs_tree: bad root");
  net.install([root](NodeId, const NodeContext&) {
    return std::make_unique<BfsTreeProgram>(root);
  });
  congest::RunOptions options = base;
  options.max_rounds = 3 * net.node_count() + 10;
  const auto stats = net.run(options);
  QDC_CHECK(stats.completed,
            "build_bfs_tree: network is disconnected (tree never finished)");
  BfsTreeResult result;
  result.root = root;
  result.stats = stats;
  result.local.resize(static_cast<std::size_t>(net.node_count()));
  for (NodeId u = 0; u < net.node_count(); ++u) {
    auto* prog = dynamic_cast<BfsTreeProgram*>(net.program(u));
    QDC_EXPECT(prog != nullptr, "build_bfs_tree: foreign program installed");
    result.local[static_cast<std::size_t>(u)] = prog->local_tree();
  }
  result.height =
      result.local[static_cast<std::size_t>(root)].height;
  return result;
}

AggregateResult run_aggregate(Network& net, const BfsTreeResult& tree,
                              const std::vector<Combiner>& combiners,
                              const std::vector<Payload>& contributions,
                              const congest::RunOptions& base) {
  QDC_EXPECT(static_cast<int>(contributions.size()) == net.node_count(),
             "run_aggregate: one contribution per node required");
  QDC_EXPECT(static_cast<int>(combiners.size()) + 1 <=
                 net.config().bandwidth,
             "run_aggregate: aggregate vector does not fit the bandwidth");
  for (const Payload& c : contributions) {
    QDC_EXPECT(c.size() == combiners.size(),
               "run_aggregate: contribution size mismatch");
  }
  net.install([&](NodeId u, const NodeContext&) {
    return std::make_unique<AggregateProgram>(
        tree.local[static_cast<std::size_t>(u)], combiners,
        contributions[static_cast<std::size_t>(u)]);
  });
  congest::RunOptions options = base;
  options.max_rounds = 3 * net.node_count() + 10;
  const auto stats = net.run(options);
  QDC_CHECK(stats.completed, "run_aggregate: did not complete");
  auto* root_prog =
      dynamic_cast<AggregateProgram*>(net.program(tree.root));
  AggregateResult result;
  result.values = root_prog->result();
  result.stats = stats;
  return result;
}

BroadcastResult run_broadcast(Network& net, const BfsTreeResult& tree,
                              Payload value,
                              const congest::RunOptions& base) {
  QDC_EXPECT(static_cast<int>(value.size()) + 1 <= net.config().bandwidth,
             "run_broadcast: value does not fit the bandwidth");
  net.install([&](NodeId u, const NodeContext&) {
    return std::make_unique<BroadcastProgram>(
        tree.local[static_cast<std::size_t>(u)], value);
  });
  congest::RunOptions options = base;
  options.max_rounds = 3 * net.node_count() + 10;
  const auto stats = net.run(options);
  QDC_CHECK(stats.completed, "run_broadcast: did not complete");
  BroadcastResult result;
  result.stats = stats;
  result.received.resize(static_cast<std::size_t>(net.node_count()));
  for (NodeId u = 0; u < net.node_count(); ++u) {
    auto* prog = dynamic_cast<BroadcastProgram*>(net.program(u));
    result.received[static_cast<std::size_t>(u)] = prog->received();
  }
  return result;
}

}  // namespace qdc::dist
