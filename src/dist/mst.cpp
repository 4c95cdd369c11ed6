#include "dist/mst.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <span>

#include "congest/network.hpp"
#include "util/expect.hpp"

namespace qdc::dist {

namespace {

// Message tags. Field layouts are documented next to each tag.
enum MstTag : std::int64_t {
  kFragEx = 20,    // {tag, frag}
  kMwoeUp = 21,    // {tag, has, w, a, b, target, subtree_height}
  kMwoeDown = 22,  // {tag, flags(bit0 has, bit1 propose), w, a, b, height}
  kProposal = 23,  // {tag, proposer_frag}
  kNewFrag = 24,   // {tag, new_frag}
  kActUp = 26,     // {tag, any_active, any_merged}
  kCtl = 27,       // {tag, code, start_round}
  kP2Up = 28,      // {tag, frag, w, a, b, target}
  kP2UpDone = 29,  // {tag}
  kP2Sel = 30,     // {tag, w, a, b}
  kP2Remap = 31,   // {tag, old, new}
  kP2End = 32,     // {tag, next_start, done}
};

enum CtlCode : std::int64_t { kCtlNextIter = 1, kCtlPhase2 = 2 };

std::int64_t pack(double w) { return std::bit_cast<std::int64_t>(w); }
double unpack(std::int64_t v) { return std::bit_cast<double>(v); }

/// Totally ordered edge key: (weight, min endpoint, max endpoint). Weights
/// may collide; the endpoints make keys unique on simple graphs, which is
/// what guarantees Boruvka acyclicity.
struct EdgeKey {
  double w = 0.0;
  std::int64_t a = -1;
  std::int64_t b = -1;

  bool valid() const { return a >= 0; }

  friend bool operator<(const EdgeKey& x, const EdgeKey& y) {
    if (x.w != y.w) return x.w < y.w;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
  friend bool operator==(const EdgeKey& x, const EdgeKey& y) {
    return x.w == y.w && x.a == y.a && x.b == y.b;
  }
};

struct Candidate {
  EdgeKey key;
  std::int64_t target = -1;  // fragment on the far side
  int port = -1;             // local port (only meaningful at the owner)
  bool valid() const { return key.valid(); }
};

// Phase-1 invariants (see header for the algorithm sketch):
//  * a fragment is ACTIVE while its tree height is < s and it has an
//    outgoing edge; only active fragments propose;
//  * a fragment ACCEPTS proposals only while its height is < 2s; since a
//    proposer's height is < s, no fragment tree ever exceeds height
//    3s + 2, so every per-iteration sub-block fits in O(s) rounds;
//  * merges are star-shaped: TAILS fragments (by a shared coin keyed on
//    (fragment id, iteration)) propose along their MWOE into HEADS
//    fragments, which keep their identity. The proposer side learns the
//    outcome only through kNewFrag (rejections are silent and retried in a
//    later iteration with fresh coins).
class FastMstProgram : public congest::NodeProgram {
 public:
  FastMstProgram(LocalTree global_tree, MstOptions opt, int n)
      : gt_(std::move(global_tree)), opt_(opt), n_(n) {
    s_ = opt_.phase1_target;
    if (s_ < 0) s_ = static_cast<int>(std::ceil(std::sqrt(double(n_))));
    skip_phase1_ = s_ <= 1;
    k1_cap_ = 4 * static_cast<int>(std::ceil(std::log2(std::max(2, n_)))) + 16;
  }

  // --- results (read by the driver after the run) ---
  std::int64_t component() const { return frag_; }
  const std::set<int>& mst_ports() const { return mst_ports_; }

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (!initialized_) initialize(ctx);
    for (const Incoming& msg : inbox) handle(ctx, msg);
    if (stage_ == Stage::kPhase1) {
      phase1_tick(ctx);
    } else {
      phase2_tick(ctx);
    }
  }

 private:
  enum class Stage { kPhase1, kPhase2 };

  void initialize(NodeContext& ctx) {
    initialized_ = true;
    frag_ = opt_.initial_component.empty()
                ? ctx.id()
                : opt_.initial_component[static_cast<std::size_t>(ctx.id())];
    for (int p = 0; p < ctx.degree(); ++p) {
      const bool ok =
          !opt_.restrict_to_subnetwork || ctx.edge_in_subnetwork(p);
      eligible_.push_back(ok);
      double w = opt_.unit_weights ? 1.0 : ctx.edge_weight(p);
      if (opt_.bucket_width > 0.0) {
        w = std::floor((w - opt_.min_weight) / opt_.bucket_width);
      }
      const std::int64_t me = ctx.id();
      const std::int64_t peer = ctx.neighbor(p);
      keys_.push_back(EdgeKey{w, std::min(me, peer), std::max(me, peer)});
      neighbor_frag_.push_back(peer);
    }
    if (skip_phase1_) {
      stage_ = Stage::kPhase2;
      p2_start_ = 0;
    } else {
      begin_phase1_iteration(0, 0);
    }
  }

  // ===========================================================================
  // Phase 1: controlled Boruvka with star merges.
  // ===========================================================================

  // Fragment tree heights are bounded by 3s + 2 (see class comment), and
  // additionally by 2^(i+2) at iteration i: heights start at 0 and a merge
  // at most doubles-plus-2 them (h <- h_heads + h_tails + 2), so early
  // iterations run in short blocks.
  int max_depth() const {
    const int growth =
        iter_ >= 28 ? n_ : (1 << std::min(iter_ + 2, 28));
    return std::min({n_, 3 * s_ + 4, growth});
  }
  int ta() const { return 2 * max_depth() + 6; }  // MWOE + decision flood
  int tb() const { return max_depth() + 8; }      // merge flood

  void begin_phase1_iteration(int iter, int start_round) {
    iter_ = iter;
    iter_start_ = start_round;
    local_cand_ = Candidate{};
    mwoe_acc_ = Candidate{};
    mwoe_height_ = 0;
    mwoe_reports_ = 0;
    mwoe_up_sent_ = false;
    chosen_ = EdgeKey{};
    chosen_has_ = false;
    chosen_propose_ = false;
    height_known_ = false;
    height_ = 0;
    had_candidate_ = false;
    reoriented_ = false;
    was_leader_ = frag_parent_ < 0;
    accepted_any_ = false;
    pending_proposals_.clear();
    pending_merge_children_.clear();
    act_armed_ = false;
    act_sent_ = false;
    act_reports_ = 0;
    act_active_ = false;
    act_merged_ = false;
    snapshot_children_ = frag_children_;
  }

  bool coin_heads(std::int64_t frag, const NodeContext& ctx) const {
    return ctx.shared_bit(frag * 1048576 + iter_ + 1);
  }

  void phase1_tick(NodeContext& ctx) {
    const int off = ctx.round() - iter_start_;
    if (off < 0) return;  // waiting for a scheduled start
    if (off == 0) {
      for (int p = 0; p < ctx.degree(); ++p) {
        if (eligible_[static_cast<std::size_t>(p)]) {
          ctx.send(p, {kFragEx, frag_});
        }
      }
      return;
    }
    if (off == 1) {
      compute_local_candidate(ctx);
      if (local_cand_.valid()) merge_candidate(local_cand_);
    }
    // Fragment MWOE + height convergecast (sub-block A).
    if (off >= 1 && !mwoe_up_sent_ && !reoriented_ &&
        mwoe_reports_ == static_cast<int>(snapshot_children_.size())) {
      mwoe_up_sent_ = true;
      if (frag_parent_ < 0) {
        leader_decide(ctx);
      } else {
        ctx.send(frag_parent_,
                 {kMwoeUp, mwoe_acc_.valid() ? 1 : 0, pack(mwoe_acc_.key.w),
                  mwoe_acc_.key.a, mwoe_acc_.key.b, mwoe_acc_.target,
                  mwoe_height_});
      }
    }
    // Merge processing (start of sub-block B): all proposals and the
    // decision flood have arrived; accept or silently reject.
    if (off == ta() && !reoriented_) {
      process_proposals(ctx);
    }
    // Iteration barrier (sub-block C): report activity up the global tree.
    if (off == ta() + tb()) {
      for (int p : pending_merge_children_) frag_children_.push_back(p);
      pending_merge_children_.clear();
      const bool leader = frag_parent_ < 0 && !reoriented_;
      act_active_ = leader && height_known_ && height_ < s_ && had_candidate_;
      act_merged_ = accepted_any_ || (reoriented_ && was_leader_);
      act_armed_ = true;
    }
    if (act_armed_ && !act_sent_ &&
        act_reports_ == static_cast<int>(gt_.children_ports.size())) {
      act_sent_ = true;
      if (gt_.is_root) {
        merge_free_streak_ = act_merged_ ? 0 : merge_free_streak_ + 1;
        const bool next_iter =
            act_active_ && merge_free_streak_ < 2 && iter_ + 1 < k1_cap_;
        const std::int64_t code = next_iter ? kCtlNextIter : kCtlPhase2;
        const std::int64_t start = ctx.round() + gt_.height + 3;
        for (int c : gt_.children_ports) ctx.send(c, {kCtl, code, start});
        apply_ctl(code, start);
      } else {
        ctx.send(gt_.parent_port,
                 {kActUp, act_active_ ? 1 : 0, act_merged_ ? 1 : 0});
      }
    }
  }

  void compute_local_candidate(const NodeContext& ctx) {
    local_cand_ = Candidate{};
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!eligible_[static_cast<std::size_t>(p)]) continue;
      if (neighbor_frag_[static_cast<std::size_t>(p)] == frag_) continue;
      const EdgeKey& k = keys_[static_cast<std::size_t>(p)];
      if (!local_cand_.valid() || k < local_cand_.key) {
        local_cand_ = Candidate{
            k, neighbor_frag_[static_cast<std::size_t>(p)], p};
      }
    }
  }

  void merge_candidate(const Candidate& c) {
    if (!c.valid()) return;
    if (!mwoe_acc_.valid() || c.key < mwoe_acc_.key) {
      mwoe_acc_ = c;
    }
  }

  void leader_decide(NodeContext& ctx) {
    chosen_has_ = mwoe_acc_.valid();
    had_candidate_ = chosen_has_;
    chosen_ = mwoe_acc_.key;
    height_ = mwoe_height_;
    height_known_ = true;
    const bool active = height_ < s_ && chosen_has_;
    chosen_propose_ = active && !coin_heads(frag_, ctx) &&
                      coin_heads(mwoe_acc_.target, ctx);
    broadcast_decision(ctx);
  }

  void broadcast_decision(NodeContext& ctx) {
    const std::int64_t flags =
        (chosen_has_ ? 1 : 0) | (chosen_propose_ ? 2 : 0);
    for (int c : snapshot_children_) {
      ctx.send(c, {kMwoeDown, flags, pack(chosen_.w), chosen_.a, chosen_.b,
                   height_});
    }
    maybe_send_proposal(ctx);
  }

  void maybe_send_proposal(NodeContext& ctx) {
    if (!chosen_propose_ || !local_cand_.valid()) return;
    if (!(local_cand_.key == chosen_)) return;
    // This node owns the fragment's MWOE: propose across it. The edge is
    // marked as a tree edge only if the far side accepts (kNewFrag).
    ctx.send(local_cand_.port, {kProposal, frag_});
  }

  void process_proposals(NodeContext& ctx) {
    if (pending_proposals_.empty()) return;
    // Accept while our fragment is still shallow enough to keep the depth
    // invariant; otherwise stay silent (the proposer retries later).
    if (!height_known_ || height_ >= 2 * s_) return;
    for (int port : pending_proposals_) {
      accepted_any_ = true;
      mst_ports_.insert(port);
      pending_merge_children_.push_back(port);
      ctx.send(port, {kNewFrag, frag_});
    }
    pending_proposals_.clear();
  }

  void reorient(NodeContext& ctx, int arrival_port, std::int64_t new_frag) {
    reoriented_ = true;
    mst_ports_.insert(arrival_port);
    std::vector<int> old_links = frag_children_;
    if (frag_parent_ >= 0) old_links.push_back(frag_parent_);
    frag_ = new_frag;
    frag_parent_ = arrival_port;
    frag_children_.clear();
    for (int p : old_links) {
      if (p == arrival_port) continue;
      frag_children_.push_back(p);
      ctx.send(p, {kNewFrag, new_frag});
    }
    pending_merge_children_.clear();
    pending_proposals_.clear();
  }

  // ===========================================================================
  // Phase 2: pipelined Boruvka through the global BFS-tree root.
  // ===========================================================================

  void begin_phase2_iteration(int start_round) {
    p2_start_ = start_round;
    p2_items_.clear();
    p2_done_reports_ = 0;
    p2_drain_started_ = false;
    p2_done_sent_ = false;
    p2_exchanged_ = false;
    p2_candidate_done_ = false;
  }

  void phase2_tick(NodeContext& ctx) {
    const int off = ctx.round() - p2_start_;
    if (off < 0) return;
    if (off == 0 && !p2_exchanged_) {
      begin_phase2_iteration(p2_start_);
      p2_exchanged_ = true;
      for (int p = 0; p < ctx.degree(); ++p) {
        if (eligible_[static_cast<std::size_t>(p)]) {
          ctx.send(p, {kFragEx, frag_});
        }
      }
      return;
    }
    if (off == 1 && !p2_candidate_done_) {
      p2_candidate_done_ = true;
      compute_local_candidate(ctx);
      if (local_cand_.valid()) {
        p2_merge_item(frag_, local_cand_.key, local_cand_.target);
      }
    }
    if (off >= 1 && !p2_done_sent_ &&
        p2_done_reports_ == static_cast<int>(gt_.children_ports.size())) {
      if (gt_.is_root) {
        p2_done_sent_ = true;
        root_merge(ctx);
      } else {
        if (!p2_drain_started_) {
          p2_drain_started_ = true;
          p2_queue_.assign(p2_items_.begin(), p2_items_.end());
        }
        if (!p2_queue_.empty()) {
          const auto& [frag, item] = p2_queue_.back();
          ctx.send(gt_.parent_port, {kP2Up, frag, pack(item.key.w),
                                     item.key.a, item.key.b, item.target});
          p2_queue_.pop_back();
        } else {
          p2_done_sent_ = true;
          ctx.send(gt_.parent_port, {kP2UpDone});
        }
      }
    }
    // Root: stream the down queue, one item per round.
    if (gt_.is_root && p2_down_next_ < p2_down_queue_.size()) {
      const Payload& item = p2_down_queue_[p2_down_next_++];
      for (int c : gt_.children_ports) ctx.send(c, item);
      apply_down_item(ctx, item);
    }
  }

  void p2_merge_item(std::int64_t frag, const EdgeKey& key,
                     std::int64_t target) {
    auto it = p2_items_.find(frag);
    if (it == p2_items_.end() || key < it->second.key) {
      p2_items_[frag] = P2Item{key, target};
    }
  }

  void root_merge(NodeContext& ctx) {
    // Central Boruvka step over the fragment graph.
    std::map<std::int64_t, std::int64_t> parent;
    const std::function<std::int64_t(std::int64_t)> find =
        [&](std::int64_t x) {
          auto it = parent.find(x);
          if (it == parent.end() || it->second == x) return x;
          const std::int64_t r = find(it->second);
          it->second = r;
          return r;
        };
    const auto ensure = [&](std::int64_t x) { parent.emplace(x, x); };
    // Sort by key for determinism.
    std::vector<std::pair<std::int64_t, P2Item>> items(p2_items_.begin(),
                                                       p2_items_.end());
    std::sort(items.begin(), items.end(), [](const auto& x, const auto& y) {
      return x.second.key < y.second.key;
    });
    std::vector<EdgeKey> selected;
    for (const auto& [frag, item] : items) {
      ensure(frag);
      ensure(item.target);
      const std::int64_t rf = find(frag);
      const std::int64_t rt = find(item.target);
      if (rf != rt) {
        // Hook the larger root under the smaller, so find() yields the
        // minimum id of every merged group.
        parent[std::max(rf, rt)] = std::min(rf, rt);
        selected.push_back(item.key);
      }
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> remaps;
    for (const auto& entry : parent) {
      const std::int64_t f = entry.first;
      const std::int64_t r = find(f);
      if (r != f) remaps.emplace_back(f, r);
    }
    p2_down_queue_.clear();
    p2_down_next_ = 0;
    for (const EdgeKey& k : selected) {
      p2_down_queue_.push_back({kP2Sel, pack(k.w), k.a, k.b});
    }
    for (const auto& [oldf, newf] : remaps) {
      p2_down_queue_.push_back({kP2Remap, oldf, newf});
    }
    const bool done = p2_items_.empty();
    const std::int64_t next_start =
        ctx.round() + static_cast<std::int64_t>(p2_down_queue_.size()) +
        gt_.height + 4;
    p2_down_queue_.push_back({kP2End, next_start, done ? 1 : 0});
  }

  void apply_down_item(NodeContext& ctx, std::span<const std::int64_t> item) {
    switch (item[0]) {
      case kP2Sel: {
        const std::int64_t a = item[2];
        const std::int64_t b = item[3];
        if (a == ctx.id() || b == ctx.id()) {
          const int port =
              ctx.port_to(static_cast<NodeId>(a == ctx.id() ? b : a));
          QDC_CHECK(port >= 0, "FastMst: selected edge has no local port");
          mst_ports_.insert(port);
        }
        break;
      }
      case kP2Remap:
        if (frag_ == item[1]) frag_ = item[2];
        break;
      case kP2End:
        if (item[2] != 0) {
          ctx.set_output(frag_);
          ctx.halt();
        } else {
          begin_phase2_iteration(static_cast<int>(item[1]));
        }
        break;
      default:
        QDC_CHECK(false, "FastMst: bad down item");
    }
  }

  // ===========================================================================
  // Message dispatch.
  // ===========================================================================

  void handle(NodeContext& ctx, const Incoming& msg) {
    switch (msg.data[0]) {
      case kFragEx:
        neighbor_frag_[static_cast<std::size_t>(msg.port)] = msg.data[1];
        break;
      case kMwoeUp: {
        if (reoriented_) break;
        if (msg.data[1] != 0) {
          Candidate c;
          c.key = EdgeKey{unpack(msg.data[2]), msg.data[3], msg.data[4]};
          c.target = msg.data[5];
          c.port = -1;
          merge_candidate(c);
        }
        mwoe_height_ =
            std::max(mwoe_height_, static_cast<int>(msg.data[6]) + 1);
        ++mwoe_reports_;
        break;
      }
      case kMwoeDown: {
        chosen_has_ = (msg.data[1] & 1) != 0;
        chosen_propose_ = (msg.data[1] & 2) != 0;
        chosen_ = EdgeKey{unpack(msg.data[2]), msg.data[3], msg.data[4]};
        height_ = static_cast<int>(msg.data[5]);
        height_known_ = true;
        for (int c : snapshot_children_) {
          ctx.send(c, {kMwoeDown, msg.data[1], msg.data[2], msg.data[3],
                       msg.data[4], msg.data[5]});
        }
        maybe_send_proposal(ctx);
        break;
      }
      case kProposal:
        pending_proposals_.push_back(msg.port);
        break;
      case kNewFrag:
        if (msg.data[1] != frag_) {
          reorient(ctx, msg.port, msg.data[1]);
        }
        break;
      case kActUp:
        act_active_ = act_active_ || msg.data[1] != 0;
        act_merged_ = act_merged_ || msg.data[2] != 0;
        ++act_reports_;
        break;
      case kCtl:
        for (int c : gt_.children_ports) {
          ctx.send(c, {kCtl, msg.data[1], msg.data[2]});
        }
        apply_ctl(msg.data[1], msg.data[2]);
        break;
      case kP2Up:
        p2_merge_item(msg.data[1],
                      EdgeKey{unpack(msg.data[2]), msg.data[3], msg.data[4]},
                      msg.data[5]);
        break;
      case kP2UpDone:
        ++p2_done_reports_;
        break;
      case kP2Sel:
      case kP2Remap:
      case kP2End:
        for (int c : gt_.children_ports) ctx.send(c, msg.data);
        apply_down_item(ctx, msg.data);
        break;
      default:
        QDC_CHECK(false, "FastMst: unknown tag");
    }
  }

  void apply_ctl(std::int64_t code, std::int64_t start) {
    if (code == kCtlNextIter) {
      begin_phase1_iteration(iter_ + 1, static_cast<int>(start));
    } else {
      stage_ = Stage::kPhase2;
      begin_phase2_iteration(static_cast<int>(start));
    }
  }

  // --- static configuration ---
  LocalTree gt_;
  MstOptions opt_;
  int n_;
  int s_ = 1;
  bool skip_phase1_ = false;
  int k1_cap_ = 0;

  // --- per-port data ---
  bool initialized_ = false;
  std::vector<bool> eligible_;
  std::vector<EdgeKey> keys_;
  std::vector<std::int64_t> neighbor_frag_;

  // --- fragment state ---
  std::int64_t frag_ = -1;
  int frag_parent_ = -1;
  std::vector<int> frag_children_;
  std::set<int> mst_ports_;

  Stage stage_ = Stage::kPhase1;

  // --- phase-1 per-iteration state ---
  int iter_ = 0;
  int iter_start_ = 0;
  std::vector<int> snapshot_children_;
  Candidate local_cand_;
  Candidate mwoe_acc_;
  int mwoe_height_ = 0;
  int mwoe_reports_ = 0;
  bool mwoe_up_sent_ = false;
  EdgeKey chosen_;
  bool chosen_has_ = false;
  bool chosen_propose_ = false;
  bool height_known_ = false;
  int height_ = 0;
  bool had_candidate_ = false;
  bool reoriented_ = false;
  bool was_leader_ = false;
  bool accepted_any_ = false;
  std::vector<int> pending_proposals_;
  std::vector<int> pending_merge_children_;
  bool act_armed_ = false;
  bool act_sent_ = false;
  int act_reports_ = 0;
  bool act_active_ = false;
  bool act_merged_ = false;
  int merge_free_streak_ = 0;  // root only

  // --- phase-2 state ---
  struct P2Item {
    EdgeKey key;
    std::int64_t target = -1;
  };
  int p2_start_ = 0;
  bool p2_exchanged_ = false;
  bool p2_candidate_done_ = false;
  std::map<std::int64_t, P2Item> p2_items_;
  std::vector<std::pair<std::int64_t, P2Item>> p2_queue_;
  int p2_done_reports_ = 0;
  bool p2_drain_started_ = false;
  bool p2_done_sent_ = false;
  std::vector<Payload> p2_down_queue_;  // root only
  std::size_t p2_down_next_ = 0;        // first item not yet streamed
};

}  // namespace

MstRunResult run_mst(Network& net, const BfsTreeResult& tree,
                     const MstOptions& options) {
  QDC_EXPECT(net.config().bandwidth >= 7,
             "run_mst: requires bandwidth >= 7 fields");
  QDC_EXPECT(options.bucket_width >= 0.0, "run_mst: negative bucket width");
  QDC_EXPECT(options.initial_component.empty() ||
                 (static_cast<int>(options.initial_component.size()) ==
                      net.node_count() &&
                  options.phase1_target <= 1 && options.phase1_target >= 0),
             "run_mst: warm start requires one label per node and "
             "phase1_target in {0, 1}");
  const int n = net.node_count();
  net.install([&](NodeId u, const NodeContext&) {
    return std::make_unique<FastMstProgram>(
        tree.local[static_cast<std::size_t>(u)], options, n);
  });
  int budget = options.max_rounds;
  if (budget <= 0) {
    const int logn = static_cast<int>(std::ceil(std::log2(std::max(2, n))));
    budget = 64 * n * (logn + 2) + 4096;
  }
  const auto stats = net.run({.max_rounds = budget});
  QDC_CHECK(stats.completed, "run_mst: did not complete within the budget");

  MstRunResult result;
  result.stats = stats;
  result.component.resize(static_cast<std::size_t>(n));
  std::set<graph::EdgeId> edges;
  for (NodeId u = 0; u < n; ++u) {
    auto* prog = dynamic_cast<FastMstProgram*>(net.program(u));
    QDC_EXPECT(prog != nullptr, "run_mst: foreign program installed");
    result.component[static_cast<std::size_t>(u)] = prog->component();
    for (int p : prog->mst_ports()) {
      edges.insert(net.view().edge_at(u, p));
    }
  }
  result.tree_edges.assign(edges.begin(), edges.end());
  for (graph::EdgeId e : result.tree_edges) {
    result.weight += net.edge_weight(e);
  }
  return result;
}

MstRunResult run_components(Network& net, const BfsTreeResult& tree,
                            bool restrict_to_subnetwork) {
  MstOptions opt;
  opt.restrict_to_subnetwork = restrict_to_subnetwork;
  opt.unit_weights = true;
  // Label merging pipelines extremely well through the root; for component
  // computation the pure phase-2 variant is both simpler and faster at
  // every practical scale (the phase-1 ablation bench quantifies this).
  opt.phase1_target = 1;
  return run_mst(net, tree, opt);
}

}  // namespace qdc::dist
