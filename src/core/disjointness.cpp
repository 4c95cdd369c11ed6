#include "core/disjointness.hpp"

#include <cmath>

#include "comm/problems.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "quantum/grover.hpp"
#include "util/expect.hpp"

namespace qdc::core {

namespace {

/// The classical streaming protocol on a path 0..D: node 0 pipelines its
/// input bits rightward (B bits per round, one field per bit); the last
/// node decides and floods the answer back so every node knows it.
class StreamDisjointnessProgram : public congest::NodeProgram {
 public:
  StreamDisjointnessProgram(BitString x, BitString y, int path_length)
      : x_(std::move(x)), y_(std::move(y)), path_length_(path_length) {}

  void on_round(congest::NodeContext& ctx,
                const std::vector<congest::Incoming>& inbox) override {
    const bool is_source = ctx.id() == 0;
    const bool is_sink = ctx.id() == path_length_;
    // Collect incoming stream bits / answer.
    for (const congest::Incoming& msg : inbox) {
      const bool from_left = ctx.neighbor(msg.port) < ctx.id();
      if (from_left && !is_source) {
        for (const std::int64_t bit : msg.data) {
          buffer_.push_back(bit != 0);
        }
      } else if (!from_left || is_source) {
        // Answer flowing back.
        answer_ = msg.data[0] != 0;
        have_answer_ = true;
      }
    }
    if (is_source && ctx.round() == 0) {
      buffer_.clear();
      next_ = 0;
      for (std::size_t i = 0; i < x_.size(); ++i) {
        buffer_.push_back(x_.get(i));
      }
    }
    // Forward up to B unsent bits rightward.
    if (!is_sink && next_ < buffer_.size()) {
      const int right = ctx.port_to(ctx.id() + 1);
      congest::Payload chunk;
      while (next_ < buffer_.size() &&
             static_cast<int>(chunk.size()) < ctx.bandwidth()) {
        chunk.push_back(buffer_[next_++] ? 1 : 0);
      }
      ctx.send(right, chunk);
    }
    // The sink decides once it has all bits.
    if (is_sink && !decided_ && buffer_.size() == y_.size()) {
      decided_ = true;
      std::size_t common = 0;
      for (std::size_t i = 0; i < y_.size(); ++i) {
        if (buffer_[i] && y_.get(i)) ++common;
      }
      answer_ = common == 0;
      have_answer_ = true;
      if (path_length_ > 0) {
        ctx.send(ctx.port_to(ctx.id() - 1), {answer_ ? 1 : 0});
      }
    }
    // Everyone forwards the answer leftward once and halts.
    if (have_answer_) {
      if (!forwarded_ && !is_sink && ctx.id() > 0) {
        forwarded_ = true;
        ctx.send(ctx.port_to(ctx.id() - 1), {answer_ ? 1 : 0});
      }
      ctx.set_output(answer_ ? 1 : 0);
      ctx.halt();
    }
  }

 private:
  BitString x_, y_;
  int path_length_;
  std::vector<bool> buffer_;  // x at node 0, else the bits received
  std::size_t next_ = 0;      // first bit of buffer_ not yet forwarded
  bool decided_ = false;
  bool have_answer_ = false;
  bool answer_ = false;
  bool forwarded_ = false;
};

}  // namespace

DisjointnessComparison compare_disjointness(const BitString& x,
                                            const BitString& y, int diameter,
                                            int b_bits, int grover_trials,
                                            Rng& rng) {
  QDC_EXPECT(x.size() == y.size(), "compare_disjointness: length mismatch");
  QDC_EXPECT(diameter >= 1, "compare_disjointness: diameter must be >= 1");
  QDC_EXPECT(b_bits >= 1, "compare_disjointness: bandwidth must be >= 1");
  QDC_EXPECT(grover_trials >= 1, "compare_disjointness: need >= 1 trial");
  const std::size_t b = x.size();
  QDC_EXPECT(b >= 2 && b <= 4096 && (b & (b - 1)) == 0,
             "compare_disjointness: b must be a power of two in [2, 4096]");

  DisjointnessComparison result;
  result.truth = comm::disjointness(x, y);

  // --- classical run, measured on the CONGEST simulator ---
  congest::Network net(graph::path_graph(diameter + 1),
                       congest::NetworkConfig{.bandwidth = b_bits});
  net.install([&](congest::NodeId, const congest::NodeContext&) {
    return std::make_unique<StreamDisjointnessProgram>(x, y, diameter);
  });
  const auto stats =
      net.run({.max_rounds = static_cast<int>(b) + 4 * diameter + 16});
  QDC_CHECK(stats.completed, "compare_disjointness: classical run stalled");
  result.classical_rounds = stats.rounds;
  result.classical_answer = net.output(0).value() != 0;

  // --- quantum protocol: Grover for a common 1-position ---
  int qubits = 0;
  while ((std::size_t{1} << qubits) < b) ++qubits;
  const auto marked = [&](std::size_t i) {
    return i < b && x.get(i) && y.get(i);
  };
  bool found = false;
  for (int trial = 0; trial < grover_trials && !found; ++trial) {
    const auto grover = quantum::grover_search(qubits, marked, rng);
    result.grover_queries += grover.oracle_queries;
    result.grover_success_probability = grover.success_probability;
    // The measured index is verified classically (one more round trip,
    // absorbed in the constant): one-sided decision.
    if (grover.is_marked) found = true;
  }
  result.quantum_answer = !found;  // disjoint iff no witness found
  result.quantum_rounds =
      2.0 * diameter * result.grover_queries + diameter;
  return result;
}

}  // namespace qdc::core
