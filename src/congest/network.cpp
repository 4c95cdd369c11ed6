#include "congest/network.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "congest/model_auditor.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/shard.hpp"

namespace qdc::congest {

namespace {

/// Baseline work of a node beyond its per-edge cost (program dispatch,
/// halt bookkeeping). Feeds the degree-weighted shard boundaries.
constexpr std::int64_t kNodeWorkBias = 4;

}  // namespace

const Network& NodeContext::attached() const {
  QDC_EXPECT(network_ != nullptr,
             "NodeContext: method requires a Network-attached context "
             "(this one was default-constructed)");
  return *network_;
}

int NodeContext::node_count() const { return attached().node_count(); }
int NodeContext::bandwidth() const { return attached().config().bandwidth; }
int NodeContext::round() const { return attached().round(); }

NodeId NodeContext::neighbor(int port) const {
  QDC_EXPECT(port >= 0 && port < degree_, "NodeContext::neighbor: bad port");
  return attached().port_peer_[static_cast<std::size_t>(first_port_ + port)];
}

int NodeContext::port_to(NodeId v) const {
  const Network& net = attached();
  for (int p = 0; p < degree_; ++p) {
    if (net.port_peer_[static_cast<std::size_t>(first_port_ + p)] == v) {
      return p;
    }
  }
  return -1;
}

double NodeContext::edge_weight(int port) const {
  QDC_EXPECT(port >= 0 && port < degree_,
             "NodeContext::edge_weight: bad port");
  const Network& net = attached();
  return net.edge_weight(
      net.port_edge_[static_cast<std::size_t>(first_port_ + port)]);
}

bool NodeContext::edge_in_subnetwork(int port) const {
  QDC_EXPECT(port >= 0 && port < degree_,
             "NodeContext::edge_in_subnetwork: bad port");
  const Network& net = attached();
  if (!net.has_subnetwork_) return true;
  return net.subnetwork_.contains(
      net.port_edge_[static_cast<std::size_t>(first_port_ + port)]);
}

void NodeContext::send(int port, std::span<const std::int64_t> message) {
  attached();
  network_->stage_fields(*this, port, message.data(), message.size());
}

void NodeContext::send_all(std::span<const std::int64_t> message) {
  attached();
  for (int p = 0; p < degree_; ++p) {
    network_->stage_fields(*this, p, message.data(), message.size());
  }
}

bool NodeContext::shared_bit(std::int64_t key) const {
  return (shared_hash(key) & 1u) != 0;
}

std::uint64_t shared_hash(std::uint64_t seed, std::uint64_t key) {
  return splitmix64(seed ^ splitmix64(key));
}

std::uint64_t NodeContext::shared_hash(std::int64_t key) const {
  return congest::shared_hash(attached().shared_seed(),
                              static_cast<std::uint64_t>(key));
}

Network::Network(std::shared_ptr<const TopologyView> view, NetworkConfig config)
    : view_(std::move(view)), config_(config) {
  QDC_EXPECT(view_ != nullptr, "Network: null TopologyView");
  QDC_EXPECT(config_.bandwidth >= 1, "Network: bandwidth must be >= 1");
  n_ = view_->node_count();
  const int m = view_->edge_count();
  contexts_.resize(static_cast<std::size_t>(n_));
  inboxes_.resize(static_cast<std::size_t>(n_));
  mail_ = std::vector<std::atomic<std::uint8_t>>(static_cast<std::size_t>(n_));

  // CSR port tables. Filling them validates the view: every port's edge
  // must connect the node to the reported peer, and every edge must be
  // incident to exactly two ports.
  port_begin_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId u = 0; u < n_; ++u) {
    port_begin_[static_cast<std::size_t>(u) + 1] =
        port_begin_[static_cast<std::size_t>(u)] + view_->degree(u);
  }
  const std::int64_t total_ports = port_begin_[static_cast<std::size_t>(n_)];
  QDC_EXPECT(total_ports == 2 * static_cast<std::int64_t>(m),
             "Network: TopologyView degree sum disagrees with edge count");
  port_peer_.resize(static_cast<std::size_t>(total_ports));
  port_edge_.resize(static_cast<std::size_t>(total_ports));
  port_back_.assign(static_cast<std::size_t>(total_ports), -1);
  std::vector<std::int64_t> first_slot(static_cast<std::size_t>(m), -1);
  for (NodeId u = 0; u < n_; ++u) {
    auto& ctx = contexts_[static_cast<std::size_t>(u)];
    ctx.network_ = this;
    ctx.id_ = u;
    ctx.first_port_ = port_begin_[static_cast<std::size_t>(u)];
    ctx.degree_ = view_->degree(u);
    for (int p = 0; p < ctx.degree_; ++p) {
      const std::int64_t gp = ctx.first_port_ + p;
      const EdgeId e = view_->edge_at(u, p);
      const NodeId peer = view_->neighbor(u, p);
      const graph::Edge ends = view_->edge(e);
      QDC_EXPECT((ends.u == u && ends.v == peer) ||
                     (ends.v == u && ends.u == peer),
                 "Network: TopologyView port tables disagree with edge "
                 "endpoints");
      port_peer_[static_cast<std::size_t>(gp)] = peer;
      port_edge_[static_cast<std::size_t>(gp)] = e;
      std::int64_t& slot = first_slot[static_cast<std::size_t>(e)];
      if (slot == -1) {
        slot = gp;
      } else {
        QDC_EXPECT(slot >= 0,
                   "Network: TopologyView reports an edge on more than two "
                   "ports");
        port_back_[static_cast<std::size_t>(gp)] = slot;
        port_back_[static_cast<std::size_t>(slot)] = gp;
        slot = -2;
      }
    }
  }
  for (const std::int64_t slot : first_slot) {
    QDC_EXPECT(slot == -2,
               "Network: TopologyView reports an edge on fewer than two "
               "ports");
  }

  // Work-weighted shard boundaries: pure function of the topology.
  std::vector<std::int64_t> work(static_cast<std::size_t>(n_));
  for (NodeId u = 0; u < n_; ++u) {
    work[static_cast<std::size_t>(u)] =
        kNodeWorkBias + contexts_[static_cast<std::size_t>(u)].degree_;
  }
  const std::vector<std::size_t> bounds =
      util::WeightedShardPlan::boundaries(work);
  if (bounds.size() < 2) {
    shards_.emplace_back(0, 0);
  } else {
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
      shards_.emplace_back(static_cast<NodeId>(bounds[s]),
                           static_cast<NodeId>(bounds[s + 1]));
    }
  }
  const int shard_count = static_cast<int>(shards_.size());
  shard_of_.resize(static_cast<std::size_t>(n_));
  for (int s = 0; s < shard_count; ++s) {
    for (NodeId u = shards_[static_cast<std::size_t>(s)].first;
         u < shards_[static_cast<std::size_t>(s)].second; ++u) {
      shard_of_[static_cast<std::size_t>(u)] = s;
    }
  }
  shard_scratch_.resize(static_cast<std::size_t>(shard_count));
  arenas_.resize(static_cast<std::size_t>(shard_count));
  staged_head_.assign(static_cast<std::size_t>(total_ports), -1);
  staged_tail_.assign(static_cast<std::size_t>(total_ports), -1);
  port_used_.assign(static_cast<std::size_t>(total_ports), 0);
  all_shards_.resize(static_cast<std::size_t>(shard_count));
  std::iota(all_shards_.begin(), all_shards_.end(), 0);
  active_.resize(static_cast<std::size_t>(shard_count));
  recv_work_.resize(static_cast<std::size_t>(shard_count));
}

Network::Network(graph::Graph topology, NetworkConfig config)
    : Network(std::make_shared<MaterializedView>(std::move(topology)),
              config) {}

Network::Network(const graph::WeightedGraph& topology, NetworkConfig config)
    : Network(std::make_shared<MaterializedView>(topology), config) {}

void Network::set_subnetwork(const graph::EdgeSubset& m) {
  QDC_EXPECT(m.universe_size() == view_->edge_count(),
             "Network::set_subnetwork: universe mismatch");
  subnetwork_ = m;
  has_subnetwork_ = true;
}

void Network::clear_subnetwork() { has_subnetwork_ = false; }

void Network::set_input(NodeId u, Payload input) {
  QDC_EXPECT(u >= 0 && u < n_, "Network::set_input: bad node");
  contexts_[static_cast<std::size_t>(u)].input_ = std::move(input);
}

void Network::install(const ProgramFactory& factory) {
  QDC_EXPECT(static_cast<bool>(factory), "Network::install: null factory");
  programs_.clear();
  trace_.clear();
  trace_recorded_ = false;
  round_ = 0;
  for (ShardArena& arena : arenas_) {
    for (auto& buffer : arena.fields) buffer.clear();
    arena.cur = 0;
    arena.records.clear();
  }
  std::fill(staged_head_.begin(), staged_head_.end(), -1);
  std::fill(staged_tail_.begin(), staged_tail_.end(), -1);
  std::fill(port_used_.begin(), port_used_.end(), 0);
  for (NodeId u = 0; u < n_; ++u) {
    auto& ctx = contexts_[static_cast<std::size_t>(u)];
    ctx.output_.reset();
    ctx.halted_ = false;
    ctx.wake_ = false;
    inboxes_[static_cast<std::size_t>(u)].clear();
    mail_[static_cast<std::size_t>(u)].store(0, std::memory_order_relaxed);
    programs_.push_back(factory(u, ctx));
    QDC_EXPECT(programs_.back() != nullptr,
               "Network::install: factory returned null");
  }
}

void Network::ensure_pool(int threads) {
  if (threads <= 1) {
    pool_.reset();
    pool_threads_ = 1;
    return;
  }
  if (!pool_ || pool_threads_ != threads) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
    pool_threads_ = threads;
  }
}

void Network::dispatch_list(const std::vector<int>& shard_ids,
                            const std::function<void(int)>& job) {
  const int count = static_cast<int>(shard_ids.size());
  if (pool_ && count > 1) {
    pool_->run(count, [&](int i) { job(shard_ids[static_cast<std::size_t>(i)]); });
    return;
  }
  for (int i = 0; i < count; ++i) {
    job(shard_ids[static_cast<std::size_t>(i)]);
  }
}

void Network::stage_fields(NodeContext& ctx, int port,
                           const std::int64_t* fields, std::size_t count) {
  QDC_EXPECT(port >= 0 && port < ctx.degree_, "NodeContext::send: bad port");
  QDC_EXPECT(!ctx.halted_, "NodeContext::send: node already halted");
  QDC_CHECK(count > 0, "NodeContext::send: empty message");
  const std::int64_t gp = ctx.first_port_ + port;
  int& used = port_used_[static_cast<std::size_t>(gp)];
  QDC_CHECK(used + static_cast<int>(count) <= config_.bandwidth,
            "CONGEST bandwidth exceeded: a node tried to push more than B "
            "fields through one edge in one round");
  used += static_cast<int>(count);
  append_staged(ctx.id_, gp, fields, count);
}

void Network::append_staged(NodeId u, std::int64_t gp,
                            const std::int64_t* fields, std::size_t count) {
  ShardArena& arena =
      arenas_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(u)])];
  std::vector<std::int64_t>& staging = arena.staging();
  const auto offset = static_cast<std::uint32_t>(staging.size());
  staging.insert(staging.end(), fields, fields + count);
  const auto rec = static_cast<std::int32_t>(arena.records.size());
  arena.records.push_back(
      StagedRec{gp, -1, offset, static_cast<std::uint32_t>(count)});
  std::int32_t& tail = staged_tail_[static_cast<std::size_t>(gp)];
  if (tail >= 0) {
    arena.records[static_cast<std::size_t>(tail)].next = rec;
  } else {
    staged_head_[static_cast<std::size_t>(gp)] = rec;
  }
  tail = rec;
  mail_[static_cast<std::size_t>(port_peer_[static_cast<std::size_t>(gp)])]
      .store(1, std::memory_order_relaxed);
}

void Network::compute_frontier_shard(int shard, bool wake_all,
                                     bool frontier) {
  ShardScratch& scratch = shard_scratch_[static_cast<std::size_t>(shard)];
  scratch.halted.clear();
  scratch.wake.clear();
  // Every scheduled node's inbox holds exactly what the previous round
  // delivered to it: delivery writes only into inboxes, and each compute
  // empties its node's inbox once on_round returns — the views in it
  // expire with the call.
  const auto compute = [&](NodeId u) {
    auto& ctx = contexts_[static_cast<std::size_t>(u)];
    auto& box = inboxes_[static_cast<std::size_t>(u)];
    programs_[static_cast<std::size_t>(u)]->on_round(ctx, box);
    box.clear();
    if (ctx.wake_) {
      ctx.wake_ = false;
      if (frontier && !ctx.halted_) scratch.wake.push_back(u);
    }
    if (ctx.halted_) scratch.halted.push_back(u);
  };
  if (wake_all) {
    const auto [begin, end] = shards_[static_cast<std::size_t>(shard)];
    for (NodeId u = begin; u < end; ++u) {
      if (!contexts_[static_cast<std::size_t>(u)].halted_) compute(u);
    }
  } else {
    for (const NodeId u : active_[static_cast<std::size_t>(shard)]) {
      compute(u);
    }
  }
}

bool Network::deliver_node(NodeId v, int shard, bool record_trace,
                           ModelAuditor* auditor) {
  ShardScratch& scratch = shard_scratch_[static_cast<std::size_t>(shard)];
  mail_[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
  auto& box = inboxes_[static_cast<std::size_t>(v)];
  box.clear();
  const auto& rctx = contexts_[static_cast<std::size_t>(v)];
  const bool receiver_halted = rctx.halted_;
  for (int p = 0; p < rctx.degree_; ++p) {
    const std::int64_t gp = rctx.first_port_ + p;
    const std::int64_t back = port_back_[static_cast<std::size_t>(gp)];
    std::int32_t rec = staged_head_[static_cast<std::size_t>(back)];
    if (rec < 0) continue;
    const NodeId u = port_peer_[static_cast<std::size_t>(gp)];
    const EdgeId e = port_edge_[static_cast<std::size_t>(gp)];
    const ShardArena& arena = arenas_[static_cast<std::size_t>(
        shard_of_[static_cast<std::size_t>(u)])];
    const std::int64_t* staged = arena.staging().data();
    for (; rec >= 0; rec = arena.records[static_cast<std::size_t>(rec)].next) {
      const StagedRec& m = arena.records[static_cast<std::size_t>(rec)];
      const bool delivered = !receiver_halted;
      if (auditor != nullptr) {
        auditor->on_message(shard, u, v, e, m.size, delivered,
                            receiver_halted);
      }
      ++scratch.messages;
      scratch.fields += m.size;
      if (record_trace) {
        scratch.trace.push_back(
            TracedMessage{u, v, e, static_cast<int>(m.size)});
      }
      if (delivered) {
        box.push_back(Incoming{p, {staged + m.offset, m.size}});
      }
    }
  }
  return !box.empty();
}

void Network::deliver_frontier_shard(int shard, bool wake_all, bool frontier,
                                     bool record_trace,
                                     ModelAuditor* auditor) {
  ShardScratch& scratch = shard_scratch_[static_cast<std::size_t>(shard)];
  scratch.messages = 0;
  scratch.fields = 0;
  scratch.trace.clear();
  auto& recv = recv_work_[static_cast<std::size_t>(shard)];
  if (wake_all) {
    // Any node may receive: walk the shard's whole node range. A node sent
    // nothing costs one flag load; its inbox is already empty.
    recv.clear();
    const auto [begin, end] = shards_[static_cast<std::size_t>(shard)];
    for (NodeId v = begin; v < end; ++v) {
      if (mail_[static_cast<std::size_t>(v)].load(std::memory_order_relaxed) ==
          0) {
        continue;
      }
      if (deliver_node(v, shard, record_trace, auditor) && frontier) {
        recv.push_back(v);
      }
    }
  } else {
    // The bucketed receivers, in node order so the delivery (and trace)
    // order matches a wake-all round's.
    std::sort(recv.begin(), recv.end());
    recv.erase(std::unique(recv.begin(), recv.end()), recv.end());
    for (const NodeId v : recv) {
      deliver_node(v, shard, record_trace, auditor);
    }
  }
  if (!frontier) return;
  // Next frontier: the union of this round's receivers and wake requests
  // (both sorted), less the halted.
  auto& next = active_[static_cast<std::size_t>(shard)];
  next.clear();
  std::set_union(recv.begin(), recv.end(), scratch.wake.begin(),
                 scratch.wake.end(), std::back_inserter(next));
  std::erase_if(next, [this](NodeId v) {
    return contexts_[static_cast<std::size_t>(v)].halted_ ||
           frontier_suppressed(v);
  });
  recv.clear();
  scratch.wake.clear();
}

void Network::clear_staging_shard(int shard) {
  ShardArena& arena = arenas_[static_cast<std::size_t>(shard)];
  for (const StagedRec& rec : arena.records) {
    staged_head_[static_cast<std::size_t>(rec.port)] = -1;
    staged_tail_[static_cast<std::size_t>(rec.port)] = -1;
    port_used_[static_cast<std::size_t>(rec.port)] = 0;
  }
  arena.records.clear();
  // The fields just staged stay put: this round's receivers read them in
  // the next compute. The other buffer was staged the last time this
  // shard computed, and the compute that read its views has returned
  // (each inbox is emptied as its on_round returns), so it is reused.
  arena.cur ^= 1;
  arena.staging().clear();
}

bool Network::frontier_suppressed(NodeId u) const {
  return std::find(frontier_suppress_for_test_.begin(),
                   frontier_suppress_for_test_.end(),
                   u) != frontier_suppress_for_test_.end();
}

RunStats Network::run(const RunOptions& options) {
  QDC_EXPECT(!programs_.empty(), "Network::run: no programs installed");
  QDC_EXPECT(options.max_rounds >= 0,
             "RunOptions.max_rounds: negative round budget");
  QDC_EXPECT(options.threads >= 0,
             "RunOptions.threads: negative thread count "
             "(0 means all hardware threads)");
  QDC_EXPECT(!(options.frontier && options.record_trace && !options.audit),
             "RunOptions.frontier: recording a trace with RunOptions.audit "
             "disabled is not allowed — only the ModelAuditor's frontier "
             "invariant makes a skipped-node trace trustworthy");
  const bool record_trace = options.record_trace;
  const int threads = options.threads == 0
                          ? util::ThreadPool::hardware_threads()
                          : options.threads;
  ensure_pool(threads);
  trace_.clear();
  trace_recorded_ = record_trace;
  for (auto& box : inboxes_) box.clear();

  RunStats stats;
  ModelAuditor auditor(*view_, config_.bandwidth);
  auditor.set_shard_count(static_cast<int>(shards_.size()));
  ModelAuditor* audit = options.audit ? &auditor : nullptr;

  // Halt census: the nodes already halted when this run starts are the
  // auditor's round-0 newly_halted set, and live_count_ drives the
  // all-halted completion check incrementally from there.
  newly_halted_.clear();
  live_count_ = 0;
  for (NodeId u = 0; u < n_; ++u) {
    if (contexts_[static_cast<std::size_t>(u)].halted_) {
      newly_halted_.push_back(u);
    } else {
      ++live_count_;
    }
  }

  run_rounds(options, record_trace, audit, stats);

  if (!stats.completed) {
    stats.rounds = options.max_rounds;
  }
  if (stats_tamper_for_test_) {
    stats_tamper_for_test_(stats);
  }
  if (audit != nullptr) {
    audit->verify(stats);
    if (record_trace) {
      audit->verify_trace(trace_);
    }
  }
  return stats;
}

void Network::run_rounds(const RunOptions& options, bool record_trace,
                         ModelAuditor* audit, RunStats& stats) {
  const bool frontier = options.frontier;
  // Round 0 computes every live node under both wake rules: they are
  // indistinguishable until the first round's activity is known. After
  // it, the default rule keeps re-waking every live node, and the
  // event-driven rule computes only the frontier each round built.
  bool wake_all = true;
  for (round_ = 0; round_ < options.max_rounds; ++round_) {
    // The shards that compute: all of them in a wake-all round, which
    // keeps its serial work O(shards); else those with a nonempty frontier.
    const std::vector<int>* computing = &all_shards_;
    if (!wake_all) {
      active_shards_.clear();
      computed_flat_.clear();
      for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
        const auto& list = active_[static_cast<std::size_t>(s)];
        if (list.empty()) continue;
        active_shards_.push_back(s);
        if (audit != nullptr) {
          computed_flat_.insert(computed_flat_.end(), list.begin(),
                                list.end());
        }
      }
      if (active_shards_.empty()) {
        // Silent remainder: nothing is staged and no inbox is pending, so
        // no node can ever act again. Fast-forward to the round budget —
        // the rounds the default rule would idle through. The auditor
        // independently verifies the no-pending-inbox claim.
        if (record_trace) {
          trace_.resize(static_cast<std::size_t>(options.max_rounds));
        }
        if (audit != nullptr) {
          audit->fast_forward_silent(options.max_rounds);
        }
        return;
      }
      computing = &active_shards_;
    }
    if (audit != nullptr) {
      audit->begin_round(
          round_, RoundActivity{&newly_halted_,
                                wake_all ? nullptr : &computed_flat_});
    }
    // Compute phase: scheduled nodes process their inboxes and stage sends
    // into their shard's arena (shard-local writes only).
    dispatch_list(*computing, [this, wake_all, frontier](int s) {
      compute_frontier_shard(s, wake_all, frontier);
    });
    // The shards that deliver: all of them in a wake-all round; else the
    // receivers of the staged records, bucketed per shard by a serial
    // O(staged records) pass, plus the computing shards, which must
    // rebuild their frontier even when nothing reached them.
    const std::vector<int>* delivering = &all_shards_;
    if (!wake_all) {
      deliver_shards_ = active_shards_;
      for (const int s : active_shards_) {
        for (const StagedRec& rec :
             arenas_[static_cast<std::size_t>(s)].records) {
          const NodeId v = port_peer_[static_cast<std::size_t>(rec.port)];
          const int t = shard_of_[static_cast<std::size_t>(v)];
          auto& bucket = recv_work_[static_cast<std::size_t>(t)];
          if (bucket.empty()) deliver_shards_.push_back(t);
          bucket.push_back(v);
        }
      }
      std::sort(deliver_shards_.begin(), deliver_shards_.end());
      deliver_shards_.erase(
          std::unique(deliver_shards_.begin(), deliver_shards_.end()),
          deliver_shards_.end());
      delivering = &deliver_shards_;
    }
    // Delivery phase: sharded by receiver; each shard reads any sender's
    // (now immutable) staging and writes only its own receivers' inboxes,
    // tallies, trace slice and next frontier. The auditor recounts every
    // message.
    dispatch_list(*delivering,
                  [this, wake_all, frontier, record_trace, audit](int s) {
                    deliver_frontier_shard(s, wake_all, frontier,
                                           record_trace, audit);
                  });
    // Reset phase: sharded by sender, clearing the staging arenas read by
    // the delivery phase (cannot be fused with it — receivers of several
    // shards read the same sender).
    dispatch_list(*computing, [this](int s) { clear_staging_shard(s); });
    // Serial epilogue: merge shard results in shard-index order, which is
    // node order — independent of how threads picked up the shards.
    newly_halted_.clear();
    for (const int s : *computing) {
      const auto& halted = shard_scratch_[static_cast<std::size_t>(s)].halted;
      newly_halted_.insert(newly_halted_.end(), halted.begin(), halted.end());
    }
    live_count_ -= static_cast<std::int64_t>(newly_halted_.size());
    std::vector<TracedMessage> round_trace;
    for (const int s : *delivering) {
      const ShardScratch& scratch = shard_scratch_[static_cast<std::size_t>(s)];
      stats.messages += scratch.messages;
      stats.fields += scratch.fields;
      if (record_trace) {
        round_trace.insert(round_trace.end(), scratch.trace.begin(),
                           scratch.trace.end());
      }
    }
    if (record_trace) {
      trace_.push_back(std::move(round_trace));
    }
    if (audit != nullptr) audit->end_round();
    if (live_count_ == 0) {
      stats.rounds = round_ + 1;
      stats.completed = true;
      return;
    }
    wake_all = !frontier;
  }
}

std::optional<std::int64_t> Network::output(NodeId u) const {
  QDC_EXPECT(u >= 0 && u < n_, "Network::output: bad node");
  return contexts_[static_cast<std::size_t>(u)].output();
}

NodeProgram* Network::program(NodeId u) {
  QDC_EXPECT(u >= 0 && u < n_, "Network::program: bad node");
  QDC_EXPECT(!programs_.empty(), "Network::program: nothing installed");
  return programs_[static_cast<std::size_t>(u)].get();
}

std::vector<std::int64_t> Network::outputs() const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(node_count()));
  for (NodeId u = 0; u < node_count(); ++u) {
    const auto o = output(u);
    QDC_CHECK(o.has_value(), "Network::outputs: a node produced no output");
    out.push_back(*o);
  }
  return out;
}

double Network::edge_weight(EdgeId e) const {
  QDC_EXPECT(e >= 0 && e < view_->edge_count(),
             "Network::edge_weight: bad edge");
  return view_->edge_weight(e);
}

void Network::stage_unchecked_for_test(NodeId u, int port, Payload message) {
  QDC_EXPECT(u >= 0 && u < n_, "Network::stage_unchecked_for_test: bad node");
  auto& ctx = contexts_[static_cast<std::size_t>(u)];
  QDC_EXPECT(port >= 0 && port < ctx.degree_,
             "Network::stage_unchecked_for_test: bad port");
  QDC_EXPECT(!message.empty(),
             "Network::stage_unchecked_for_test: empty message");
  // Deliberately skips the port_used_ budget charge: the next audited run
  // must catch the resulting under-count.
  append_staged(u, ctx.first_port_ + port, message.data(), message.size());
}

void Network::set_stats_tamper_for_test(std::function<void(RunStats&)> tamper) {
  stats_tamper_for_test_ = std::move(tamper);
}

void Network::suppress_frontier_node_for_test(NodeId u) {
  QDC_EXPECT(u >= 0 && u < n_,
             "Network::suppress_frontier_node_for_test: bad node");
  frontier_suppress_for_test_.push_back(u);
}

}  // namespace qdc::congest
