#include "congest/model_auditor.hpp"

#include "graph/graph.hpp"
#include "util/expect.hpp"

namespace qdc::congest {

ModelAuditor::ModelAuditor(const TopologyView& topology, int bandwidth)
    : topology_(topology),
      bandwidth_(bandwidth),
      round_fields_(static_cast<std::size_t>(topology.edge_count()) * 2, 0),
      shards_(1),
      halted_(static_cast<std::size_t>(topology.node_count()), 0),
      computed_stamp_(static_cast<std::size_t>(topology.node_count()), -1),
      received_stamp_(static_cast<std::size_t>(topology.node_count()), -1) {
  QDC_EXPECT(bandwidth >= 1, "ModelAuditor: bandwidth must be >= 1");
}

void ModelAuditor::set_shard_count(int shards) {
  QDC_EXPECT(!round_open_,
             "ModelAuditor::set_shard_count: a round is still open");
  QDC_EXPECT(shards >= 1, "ModelAuditor::set_shard_count: needs >= 1 shard");
  shards_.resize(static_cast<std::size_t>(shards));
}

void ModelAuditor::begin_round(int round, const RoundActivity& activity) {
  QDC_EXPECT(!round_open_, "ModelAuditor::begin_round: round already open");
  QDC_EXPECT(round == rounds_, "ModelAuditor::begin_round: rounds must be "
                               "audited consecutively from 0");
  if (activity.newly_halted != nullptr) {
    for (const graph::NodeId u : *activity.newly_halted) {
      QDC_EXPECT(u >= 0 && u < topology_.node_count(),
                 "ModelAuditor::begin_round: bad halted node id");
      halted_[static_cast<std::size_t>(u)] = 1;
    }
  }
  frontier_round_ = activity.computed != nullptr;
  if (frontier_round_) {
    for (const graph::NodeId u : *activity.computed) {
      QDC_EXPECT(u >= 0 && u < topology_.node_count(),
                 "ModelAuditor::begin_round: bad computed node id");
      QDC_CHECK(halted_[static_cast<std::size_t>(u)] == 0,
                "[audit] frontier mode scheduled a halted node to compute");
      computed_stamp_[static_cast<std::size_t>(u)] = round;
    }
    // The frontier invariant's receiving half: a message delivered last
    // round obliges its receiver to run this round — a node with a
    // nonempty inbox must never be skipped.
    for (const ShardTally& tally : shards_) {
      for (const graph::NodeId v : tally.received) {
        QDC_CHECK(computed_stamp_[static_cast<std::size_t>(v)] == round,
                  "[audit] frontier mode skipped a node with a nonempty "
                  "inbox: the computed set was tampered with or the "
                  "scheduler dropped a pending receiver");
      }
    }
  }
  for (ShardTally& tally : shards_) tally.received.clear();
  round_open_ = true;
}

void ModelAuditor::on_message(int shard, graph::NodeId from, graph::NodeId to,
                              graph::EdgeId edge, std::size_t fields,
                              bool delivered, bool receiver_halted) {
  QDC_EXPECT(round_open_, "ModelAuditor::on_message: no open round");
  QDC_EXPECT(shard >= 0 && shard < static_cast<int>(shards_.size()),
             "ModelAuditor::on_message: bad shard index");
  QDC_EXPECT(edge >= 0 && edge < topology_.edge_count(),
             "ModelAuditor::on_message: bad edge id");
  const graph::Edge e = topology_.edge(edge);
  QDC_CHECK((from == e.u && to == e.v) || (from == e.v && to == e.u),
            "[audit] a message was attributed to an edge that does not "
            "connect its sender and receiver");
  QDC_CHECK(fields > 0, "[audit] a delivered message carries zero fields");
  QDC_CHECK(halted_[static_cast<std::size_t>(from)] == 0,
            "[audit] a node that halted in an earlier round sent a message");
  if (frontier_round_) {
    QDC_CHECK(computed_stamp_[static_cast<std::size_t>(from)] == rounds_,
              "[audit] a node outside the computed frontier sent a message");
  }
  QDC_CHECK(delivered == !receiver_halted,
            "[audit] message delivery disagrees with the receiver's halt "
            "status (halted nodes receive nothing; live nodes miss nothing)");
  const std::size_t key =
      static_cast<std::size_t>(edge) * 2 + (from == e.u ? 0 : 1);
  ShardTally& tally = shards_[static_cast<std::size_t>(shard)];
  if (round_fields_[key] == 0) tally.touched.push_back(key);
  round_fields_[key] += static_cast<std::int64_t>(fields);
  ++tally.messages;
  tally.fields += static_cast<std::int64_t>(fields);
  if (delivered && received_stamp_[static_cast<std::size_t>(to)] != rounds_) {
    received_stamp_[static_cast<std::size_t>(to)] = rounds_;
    tally.received.push_back(to);
  }
}

void ModelAuditor::end_round() {
  QDC_EXPECT(round_open_, "ModelAuditor::end_round: no open round");
  for (ShardTally& tally : shards_) {
    for (const std::size_t key : tally.touched) {
      QDC_CHECK(round_fields_[key] <= bandwidth_,
                "[audit] recounted fields on one edge direction exceed the "
                "CONGEST bandwidth B: the send path under-charged this round");
      round_fields_[key] = 0;
    }
    tally.touched.clear();
    messages_ += tally.messages;
    fields_ += tally.fields;
    tally.messages = 0;
    tally.fields = 0;
  }
  round_open_ = false;
  ++rounds_;
}

void ModelAuditor::fast_forward_silent(int total_rounds) {
  QDC_EXPECT(!round_open_,
             "ModelAuditor::fast_forward_silent: a round is still open");
  QDC_EXPECT(total_rounds >= rounds_,
             "ModelAuditor::fast_forward_silent: cannot rewind rounds");
  for (const ShardTally& tally : shards_) {
    QDC_CHECK(tally.received.empty(),
              "[audit] frontier mode fast-forwarded past a node with a "
              "nonempty inbox: the silent-remainder claim is false");
  }
  rounds_ = total_rounds;
}

void ModelAuditor::verify(const RunStats& stats) const {
  QDC_EXPECT(!round_open_, "ModelAuditor::verify: a round is still open");
  QDC_CHECK(stats.rounds == rounds_,
            "[audit] RunStats.rounds disagrees with the audited round count");
  QDC_CHECK(stats.messages == messages_,
            "[audit] RunStats.messages disagrees with the independently "
            "recounted message total");
  QDC_CHECK(stats.fields == fields_,
            "[audit] RunStats.fields disagrees with the independently "
            "recounted field total: bandwidth accounting was tampered with "
            "or under-charged");
}

void ModelAuditor::verify_trace(
    const std::vector<std::vector<TracedMessage>>& trace) const {
  QDC_EXPECT(!round_open_, "ModelAuditor::verify_trace: a round is still open");
  QDC_CHECK(trace.size() == static_cast<std::size_t>(rounds_),
            "[audit] trace round count disagrees with the audited rounds");
  std::int64_t traced_messages = 0;
  std::int64_t traced_fields = 0;
  for (const auto& round_trace : trace) {
    for (const TracedMessage& m : round_trace) {
      QDC_CHECK(m.fields > 0, "[audit] trace records a zero-field message");
      ++traced_messages;
      traced_fields += m.fields;
    }
  }
  QDC_CHECK(traced_messages == messages_,
            "[audit] trace message total disagrees with the audit count");
  QDC_CHECK(traced_fields == fields_,
            "[audit] trace field total disagrees with the audit count");
}

}  // namespace qdc::congest
