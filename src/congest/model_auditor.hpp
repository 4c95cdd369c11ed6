// Independent model-conformance accountant for CONGEST(B) runs.
//
// The Network's send path already rejects over-budget sends with a
// QDC_CHECK, but a simulator bug there would *under-charge* bandwidth and
// silently fake a lower-bound violation — the exact failure mode that makes
// an empirical CONGEST study untrustworthy. The ModelAuditor is a second
// accountant wired into Network::run that re-derives every quantity from
// the delivered messages themselves, without reading the send path's
// staging counters:
//
//   * per-edge, per-direction field totals each round (must be <= B);
//   * halted nodes neither send nor receive;
//   * message/field/round totals agree with the RunStats the run reports;
//   * when tracing is on, the trace agrees with the audit counts;
//   * in rounds that compute only a frontier (the event-driven wake rule),
//     the frontier invariant: a node outside the computed set sends
//     nothing, and every node that was delivered a message is computed in
//     the following round (no nonempty inbox is ever skipped).
//
// Any disagreement throws qdc::ModelError via QDC_CHECK with an "[audit]"
// message, so a tampered or buggy run can never report success.
//
// Parallel recounting: the parallel round engine delivers messages from
// several threads at once, sharded by receiver. The auditor supports this
// through the shard-qualified on_message overload: distinct shards own
// disjoint receivers, hence disjoint (edge, direction) keys and disjoint
// receiver stamps, so the shared per-key counters are written race-free,
// and per-shard message/field tallies are merged deterministically (in
// shard-index order) by end_round(); per-shard receiver lists are read in
// shard-index order by the next round's frontier check. The unqualified
// on_message is the serial path (shard 0).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/stats.hpp"
#include "congest/topology.hpp"

namespace qdc::congest {

/// What the engine scheduled for one round, handed to begin_round.
/// Both pointers may be null and are only read during the call.
struct RoundActivity {
  /// Nodes that halted since the previous begin_round (for round 0: the
  /// nodes already halted when the run started), in increasing id order.
  /// Null means none.
  const std::vector<graph::NodeId>* newly_halted = nullptr;

  /// Exactly the nodes the engine computes this round, in increasing id
  /// order. Null means every live node computes (a wake-all round, where
  /// the frontier invariant holds trivially).
  const std::vector<graph::NodeId>* computed = nullptr;
};

class ModelAuditor {
 public:
  /// Audits runs over `topology` with `bandwidth` fields per edge per
  /// direction per round. The view reference must outlive the auditor.
  ModelAuditor(const TopologyView& topology, int bandwidth);

  /// Declares how many delivery shards will feed this auditor (default 1).
  /// Must be called outside an open round.
  void set_shard_count(int shards);

  /// Opens round `round`, ingesting the engine's scheduling claims for it
  /// (see RoundActivity). Enforces the frontier invariant when a computed
  /// set is declared: computed nodes are live, and every receiver the
  /// previous round delivered to is computed now.
  void begin_round(int round, const RoundActivity& activity);

  /// Records one message of `fields` fields crossing `edge` from `from`
  /// to `to` in the current round, observed by delivery shard `shard`.
  /// `delivered` says whether the simulator put it into the receiver's
  /// inbox; `receiver_halted` is the receiver's halt status at delivery
  /// time. Checks sender liveness (and, in frontier rounds, sender
  /// membership in the computed set), edge/endpoint consistency, and that
  /// exactly the live receivers get their messages. Thread-safe across
  /// *distinct* shards provided every receiver — hence every
  /// (edge, direction) key — is reported by a single shard, which holds
  /// whenever shards partition the receivers.
  void on_message(int shard, graph::NodeId from, graph::NodeId to,
                  graph::EdgeId edge, std::size_t fields, bool delivered,
                  bool receiver_halted);

  /// Serial convenience overload: reports through shard 0.
  void on_message(graph::NodeId from, graph::NodeId to, graph::EdgeId edge,
                  std::size_t fields, bool delivered, bool receiver_halted) {
    on_message(0, from, to, edge, fields, delivered, receiver_halted);
  }

  /// Closes the current round: every (edge, direction) pair's recounted
  /// field total must be within the bandwidth budget. Merges the shard
  /// tallies in shard-index order (serial; call from one thread).
  void end_round();

  /// The event-driven rule's silent-remainder shortcut: the engine claims
  /// no node will act again and jumps straight to the round budget. Legal
  /// only when the last executed round delivered nothing — otherwise some
  /// node holds a nonempty inbox and skipping it would break the model.
  void fast_forward_silent(int total_rounds);

  /// Final cross-check of the run's reported statistics against the
  /// independently recounted totals.
  void verify(const RunStats& stats) const;

  /// Cross-checks a recorded trace (one vector per round) against the
  /// audit counts: same number of rounds, same message and field totals.
  void verify_trace(const std::vector<std::vector<TracedMessage>>& trace) const;

  std::int64_t messages() const { return messages_; }
  std::int64_t fields() const { return fields_; }
  int rounds() const { return rounds_; }

 private:
  /// Per-shard scratch, padded so shards claimed by different threads do
  /// not share cache lines while tallying.
  struct alignas(64) ShardTally {
    std::int64_t messages = 0;
    std::int64_t fields = 0;
    std::vector<std::size_t> touched;      // keys written this round
    // Receivers delivered to this round. They outlive end_round: only the
    // next begin_round that declares a computed set (or fast_forward_silent)
    // reads them, so a wake-all round pays no serial pass over them.
    std::vector<graph::NodeId> received;
  };

  const TopologyView& topology_;
  int bandwidth_;

  // Recounted per-(edge, direction) fields for the open round. Keyed by
  // 2*edge + direction where direction 0 means edge.u -> edge.v. Each key
  // is owned by the shard that owns the receiving endpoint, so concurrent
  // shards write disjoint entries. Only the touched keys are reset between
  // rounds.
  std::vector<std::int64_t> round_fields_;
  std::vector<ShardTally> shards_;

  // Halt ledger, updated incrementally from RoundActivity::newly_halted —
  // O(halts) per round rather than the O(n) halt-vector copy a wake-all
  // round would otherwise pay at 10^6+ nodes.
  std::vector<char> halted_;

  // Frontier bookkeeping. computed_stamp_[u] == r means u was declared
  // computed in round r; received_stamp_[to] deduplicates the per-shard
  // receiver lists of a round.
  std::vector<int> computed_stamp_;
  std::vector<int> received_stamp_;
  bool frontier_round_ = false;

  bool round_open_ = false;
  int rounds_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t fields_ = 0;
};

}  // namespace qdc::congest
