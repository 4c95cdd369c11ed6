// Synchronous CONGEST(B) network simulator (Section 2.1 / Appendix A.1).
//
// A Network wraps an undirected topology, described by a TopologyView —
// either a materialized graph::Graph or an implicit, formula-backed
// provider (congest/topology.hpp, core/lb_topology.hpp) that scales to
// 10^6..10^7 nodes. Each node runs a NodeProgram: every round the program
// sees the messages delivered this round and may send at most `bandwidth`
// fields through each incident edge (per direction). Programs have
// unbounded local computation, know their own id, their neighbors' ids
// (and nothing else about the topology), the total node count n, and any
// per-node problem input. Nodes halt explicitly; the run ends when every
// node has halted.
//
// Entanglement / shared randomness: the model grants all nodes access to a
// common random tape that is independent of the input (footnote 2 of the
// paper: shared entanglement subsumes shared randomness). Programs read it
// through NodeContext::shared_bit / shared_hash without communicating.
//
// Model conformance: every run is double-checked by a ModelAuditor (see
// congest/model_auditor.hpp), a second accountant that recounts bandwidth
// from the delivered messages and rejects any run whose accounting was
// under-charged or tampered with. Auditing is on by default and can only
// be disabled explicitly through RunOptions::audit.
//
// Parallel execution: rounds are synchronous, so within one round every
// node's on_round is independent (it reads its own inbox, writes its own
// shard's staging arena) and delivery to distinct receivers is
// independent. run() exploits this with a deterministic sharded engine:
// nodes are split into contiguous shards along the cumulative-work curve
// (degree-weighted — a pure function of the topology, never of the thread
// count), shards execute on a work-stealing-free thread pool, and every
// merge — delivered inboxes, RunStats tallies, traces, audit recounts —
// happens in shard-index order. Outputs, RunStats, and traces are
// therefore bit-identical for any RunOptions::threads value. Within one
// receiver's inbox, messages are ordered by the receiver's port index
// (i.e. by (edge, direction)), then by the sender's staging order on that
// edge.
//
// A round runs three phases, each a barrier-separated pool job: compute
// (programs read their inboxes and stage sends), deliver (each receiver's
// shard gathers what was staged towards it) and reset (each sender's shard
// releases its staging). Delivery copies no field: an inbox entry is a
// {port, span} view into the sender shard's arena. Each arena has two
// field buffers. A round's sends stage into one while its compute reads
// views into the other; its reset keeps the buffer just staged for the
// next round's compute, and swaps to and clears the one whose views this
// round's compute has read. A node's single inbox is emptied as soon as
// its on_round returns, so it holds views only from its delivery to the
// call that reads them. Every staged message also raises its receiver's
// mail flag (one atomic byte per node, set by the sending shard, read and
// cleared by the receiving one): a wake-all round's delivery skips each
// node whose flag is clear at the cost of one load, without walking its
// ports.
//
// One round loop, two wake rules (RunOptions::frontier). Each round
// computes a frontier of live nodes; round 0's frontier is every live node,
// and the wake rule picks each later one:
//
//   * default: every live node is re-woken, so a live node's on_round runs
//     every round whether or not anything arrived — the synchronous model
//     the dist/ and core/ programs are written against;
//   * event-driven (RunOptions::frontier): only the nodes delivered a
//     message last round or that called request_wake(), so a round costs
//     O(activity) instead of O(n + m), and a run whose frontier empties
//     fast-forwards to its round budget.
//
// The event-driven rule's scheduling contract: a program must act only on
// message arrival or an explicit wake it requested; a silent, unwoken
// node's on_round must be a no-op. For programs honoring that contract,
// the two rules give bit-identical outputs, RunStats and traces at every
// thread count. The ModelAuditor independently enforces the checkable half
// of the contract in every round that computes less than every live node:
// no node outside the computed frontier sends, and no node with a nonempty
// inbox is ever skipped. Whatever the rule, every message staged when a
// round starts is delivered and audited in that round.
//
// NodePrograms are per-node instances and must not share mutable state
// with each other if the network is run with threads > 1.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "congest/message.hpp"
#include "congest/stats.hpp"
#include "congest/topology.hpp"
#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace qdc::congest {

using graph::EdgeId;
using graph::NodeId;

class ModelAuditor;
class Network;
class NodeProgram;

namespace testing {
class NetworkTestAccess;
}  // namespace testing

/// The shared random tape: the 64-bit word at `key` under the tape seed
/// `seed` (NetworkConfig::shared_seed). NodeContext::shared_hash reads it
/// for a node; a driver computing a coin every node could draw on its own
/// (dist::min_cut_keeps_edge) reads it directly.
std::uint64_t shared_hash(std::uint64_t seed, std::uint64_t key);

/// Immutable per-node view of the network plus the node's mutable
/// input/output slots. Owned by the Network; handed to programs each round.
class NodeContext {
 public:
  NodeId id() const { return id_; }
  int node_count() const;       ///< n is global knowledge (standard).
  int degree() const { return degree_; }
  int bandwidth() const;        ///< fields per edge per direction per round.
  int round() const;            ///< current round number (0-based).

  /// Unique id of the neighbor behind `port`.
  NodeId neighbor(int port) const;

  /// Port leading to neighbor with id `v`; -1 if not adjacent.
  int port_to(NodeId v) const;

  /// Weight of the edge behind `port` (1.0 for unweighted networks).
  double edge_weight(int port) const;

  /// Whether the edge behind `port` belongs to the input subnetwork M
  /// (always true when no subnetwork input was set).
  bool edge_in_subnetwork(int port) const;

  /// Problem-specific per-node input (empty if unset).
  const Payload& input() const { return input_; }

  /// Queue a message through `port`; throws ModelError if the per-edge
  /// budget for this round is exceeded. The fields are copied into the
  /// node's shard arena before send returns, so `message` may view
  /// anything alive for the call: a Payload, a local array, an inbox
  /// entry's data (an inbox view is itself valid only during the on_round
  /// call that received it). No per-message allocation in steady state.
  void send(int port, std::span<const std::int64_t> message);
  /// `ctx.send(port, {tag, x, ...})` stages straight from the braced list.
  void send(int port, std::initializer_list<std::int64_t> message) {
    send(port, std::span<const std::int64_t>(message.begin(), message.size()));
  }

  /// Send the same message through every port (costs bandwidth on each).
  /// Stages the fields directly; the message is never copied per port.
  void send_all(std::span<const std::int64_t> message);
  void send_all(std::initializer_list<std::int64_t> message) {
    send_all(std::span<const std::int64_t>(message.begin(), message.size()));
  }

  /// Record this node's output value.
  void set_output(std::int64_t value) { output_ = value; }
  std::optional<std::int64_t> output() const { return output_; }

  /// Stop participating. A halted node sends and receives nothing further.
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  /// Event-driven wake rule: schedule this node next round even if no
  /// message arrives (the only way a silent node may act again). A no-op
  /// under the default rule, which re-wakes every live node every round.
  void request_wake() { wake_ = true; }

  /// Shared random bit / 64-bit hash addressed by a key. Every node gets
  /// the same answer for the same key without any communication.
  bool shared_bit(std::int64_t key) const;
  std::uint64_t shared_hash(std::int64_t key) const;

  /// Contexts are created and wired up by the Network only. A
  /// default-constructed context is not attached to any Network; calling a
  /// method that needs one throws ContractError instead of dereferencing
  /// null.
  NodeContext() = default;

 private:
  friend class Network;

  /// The owning network; throws ContractError on a detached context.
  const Network& attached() const;

  Network* network_ = nullptr;
  NodeId id_ = -1;
  std::int64_t first_port_ = 0;  // global index of this node's port 0
  int degree_ = 0;
  Payload input_;
  std::optional<std::int64_t> output_;
  bool halted_ = false;
  bool wake_ = false;
};

/// A distributed algorithm, instantiated once per node. `on_round` runs in
/// every round whose frontier holds the node — under the default wake rule,
/// every round until it halts; the inbox holds messages sent to this node
/// in the previous round. The inbox and the fields its entries view are
/// valid only during the call (see Incoming).
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  virtual void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) = 0;
};

using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(NodeId, const NodeContext&)>;

struct NetworkConfig {
  int bandwidth = 8;              ///< fields per edge per direction per round
  std::uint64_t shared_seed = 0x9e3779b97f4a7c15ULL;
};

/// Per-run execution options for Network::run — the single source of
/// truth for how a run executes (there are no per-network defaults).
struct RunOptions {
  int max_rounds = 0;   ///< round budget; the run stops when it elapses

  /// Worker threads for the round engine. 1 = serial (default); 0 = use
  /// all hardware threads. Results are bit-identical for every value.
  int threads = 1;

  /// Record the per-round message trace (off by default).
  bool record_trace = false;

  /// Run the ModelAuditor second accountant (default on). Disable only
  /// for benchmarking the raw engine; unaudited runs are not trustworthy
  /// evidence for any bound.
  bool audit = true;

  /// The wake rule after round 0. false: re-wake every live node each
  /// round. true (event-driven): wake only last round's receivers and
  /// request_wake() callers, skip the rest, and fast-forward silent
  /// remainders. true requires event-driven programs (see the header
  /// comment), and combining it with record_trace demands audit stay on.
  bool frontier = false;
};

/// The synchronous network. Construction freezes the topology; inputs and
/// programs may be (re)installed between runs.
class Network {
 public:
  /// The general constructor: any TopologyView, materialized or implicit.
  Network(std::shared_ptr<const TopologyView> view, NetworkConfig config);

  /// Convenience adapters wrapping the graph in a MaterializedView.
  Network(graph::Graph topology, NetworkConfig config);
  Network(const graph::WeightedGraph& topology, NetworkConfig config);

  int node_count() const { return n_; }

  /// The structural view the network was built over.
  const TopologyView& view() const { return *view_; }

  const NetworkConfig& config() const { return config_; }
  int round() const { return round_; }

  /// Declares the input subnetwork M (Section 2.2). Must match the
  /// topology's edge universe.
  void set_subnetwork(const graph::EdgeSubset& m);
  void clear_subnetwork();

  void set_input(NodeId u, Payload input);

  /// Instantiates one program per node. Clears previous programs, outputs
  /// and statistics.
  void install(const ProgramFactory& factory);

  /// Runs until every node halts or `options.max_rounds` elapse, using the
  /// deterministic sharded round engine with `options.threads` threads.
  /// Unless options.audit is off, the whole run is audited by a
  /// ModelAuditor; a model violation or an accounting mismatch throws
  /// ModelError. Invalid options throw ContractError up front.
  RunStats run(const RunOptions& options);

  std::optional<std::int64_t> output(NodeId u) const;

  /// The program instance running at node u (null before install). Drivers
  /// may downcast to read richer per-node results after a run.
  NodeProgram* program(NodeId u);

  /// All node outputs; throws ModelError if some node never set one.
  std::vector<std::int64_t> outputs() const;

  /// Per-round message traces of the most recent run (only if it recorded
  /// a trace; see trace_recorded()).
  const std::vector<std::vector<TracedMessage>>& trace() const {
    return trace_;
  }

  /// Whether the most recent run() recorded a trace.
  bool trace_recorded() const { return trace_recorded_; }

  double edge_weight(EdgeId e) const;
  std::uint64_t shared_seed() const { return config_.shared_seed; }

 private:
  friend class NodeContext;
  friend class testing::NetworkTestAccess;

  /// One staged message: `size` fields at `offset` in the sender shard's
  /// arena, chained per sender port in staging order.
  struct StagedRec {
    std::int64_t port = 0;     // sender's global port index
    std::int32_t next = -1;    // next record on the same port (-1 = end)
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  /// Per-shard staging arena. Only the owning shard's compute and reset
  /// phases write it; padded so neighboring arenas never share a cache
  /// line. The round's sends stage into fields[cur]; the other buffer
  /// holds the fields staged the last time this shard computed, which the
  /// inbox views of the current round's compute read.
  struct alignas(64) ShardArena {
    std::array<std::vector<std::int64_t>, 2> fields;
    std::size_t cur = 0;
    std::vector<StagedRec> records;

    std::vector<std::int64_t>& staging() { return fields[cur]; }
    const std::vector<std::int64_t>& staging() const { return fields[cur]; }
  };

  /// Per-shard scratch for one round, merged in shard-index order. Padded
  /// so threads tallying different shards do not share cache lines.
  struct alignas(64) ShardScratch {
    std::int64_t messages = 0;
    std::int64_t fields = 0;
    std::vector<TracedMessage> trace;
    std::vector<NodeId> halted;  // nodes that halted this round
    std::vector<NodeId> wake;    // live nodes that requested a wake
  };

  /// Budget-checked staging used by NodeContext::send.
  void stage_fields(NodeContext& ctx, int port, const std::int64_t* fields,
                    std::size_t count);
  /// Appends one record of `count` fields to u's shard arena and links it
  /// at the end of global port `gp`'s chain. Checks nothing.
  void append_staged(NodeId u, std::int64_t gp, const std::int64_t* fields,
                     std::size_t count);

  /// Test-only hooks, reachable through congest::testing::NetworkTestAccess.
  void stage_unchecked_for_test(NodeId u, int port, Payload message);
  void set_stats_tamper_for_test(std::function<void(RunStats&)> tamper);
  void suppress_frontier_node_for_test(NodeId u);

  /// (Re)creates the thread pool to match the requested thread count.
  void ensure_pool(int threads);

  /// Runs `job` over an explicit shard-id list, on the pool when one is
  /// active, inline (in list order) otherwise.
  void dispatch_list(const std::vector<int>& shard_ids,
                     const std::function<void(int)>& job);

  /// One round's per-shard phases. `wake_all` walks the shard's whole node
  /// range (every live node computes, any node may receive) instead of
  /// its frontier / bucketed receivers; `frontier` (the event-driven wake
  /// rule) collects wake requests and builds the shard's next frontier.
  void compute_frontier_shard(int shard, bool wake_all, bool frontier);
  /// Delivers v's staged messages (v's mail flag was set) and clears the
  /// flag; true if v's inbox got any.
  bool deliver_node(NodeId v, int shard, bool record_trace,
                    ModelAuditor* auditor);
  void deliver_frontier_shard(int shard, bool wake_all, bool frontier,
                              bool record_trace, ModelAuditor* auditor);
  void clear_staging_shard(int shard);

  void run_rounds(const RunOptions& options, bool record_trace,
                  ModelAuditor* audit, RunStats& stats);

  bool frontier_suppressed(NodeId u) const;

  std::shared_ptr<const TopologyView> view_;
  NetworkConfig config_;
  graph::EdgeSubset subnetwork_;
  bool has_subnetwork_ = false;
  int n_ = 0;

  // CSR port tables (struct-of-arrays): node u's ports are the global
  // slots [port_begin_[u], port_begin_[u+1]). port_back_ maps a slot to
  // the same edge's slot at the other endpoint, for O(1) reverse lookup.
  std::vector<std::int64_t> port_begin_;
  std::vector<NodeId> port_peer_;
  std::vector<EdgeId> port_edge_;
  std::vector<std::int64_t> port_back_;
  std::vector<int> shard_of_;  // node -> owning shard

  std::vector<NodeContext> contexts_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;

  // One inbox per node. Delivery fills a receiver's inbox with views into
  // the sender shards' arenas, and the compute that reads them empties it
  // as soon as on_round returns, so every inbox is empty when a delivery
  // phase starts. (A receiver left out of the next frontier, which only
  // the suppress_frontier_node_for_test hook causes and the auditor
  // rejects, keeps its views unread until deliver_node or run() empties
  // it.) Capacity is kept, so delivery allocates only when a node is sent
  // more messages than ever before.
  std::vector<std::vector<Incoming>> inboxes_;

  // Mail flags, one per node: set (relaxed) by append_staged in the
  // sender's shard during compute; read and cleared by the receiver's
  // shard during delivery. The pool barrier between the phases orders the
  // two, and distinct shards clear disjoint flags.
  std::vector<std::atomic<std::uint8_t>> mail_;

  // Engine sharding: contiguous node ranges placed along the cumulative
  // degree-work curve (util::WeightedShardPlan) — fixed by the topology
  // alone so that shard-order merges are thread-count-invariant.
  std::vector<std::pair<NodeId, NodeId>> shards_;
  std::vector<ShardScratch> shard_scratch_;

  // Message staging: per-shard arenas plus per-global-port chain heads,
  // budget counters owned by the sender's shard.
  std::vector<ShardArena> arenas_;
  std::vector<std::int32_t> staged_head_;
  std::vector<std::int32_t> staged_tail_;
  std::vector<int> port_used_;

  // Round scheduling. all_shards_ lists every shard (a wake-all round's
  // work list). Under the event-driven rule active_ holds the sorted
  // per-shard frontier and recv_work_ the per-shard receivers of the
  // current round.
  std::vector<int> all_shards_;
  std::vector<std::vector<NodeId>> active_;
  std::vector<std::vector<NodeId>> recv_work_;
  std::vector<int> active_shards_;
  std::vector<int> deliver_shards_;
  std::vector<NodeId> computed_flat_;
  std::vector<NodeId> newly_halted_;
  std::int64_t live_count_ = 0;
  std::vector<NodeId> frontier_suppress_for_test_;

  std::unique_ptr<util::ThreadPool> pool_;
  int pool_threads_ = 1;

  std::vector<std::vector<TracedMessage>> trace_;
  bool trace_recorded_ = false;
  std::function<void(RunStats&)> stats_tamper_for_test_;
  int round_ = 0;
};

}  // namespace qdc::congest
