#include "core/simulation.hpp"

#include <algorithm>

#include "congest/stats.hpp"
#include "util/expect.hpp"

namespace qdc::core {

SimulationAccounting account_three_party_cost(const LbTopologyView& lb,
                                              const congest::Network& net) {
  QDC_EXPECT(net.node_count() == lb.node_count() &&
                 net.view().edge_count() == lb.edge_count(),
             "account_three_party_cost: network does not match N(Gamma, L)");
  QDC_EXPECT(net.trace_recorded(),
             "account_three_party_cost: run the network with record_trace");
  const auto& trace = net.trace();
  QDC_CHECK(static_cast<int>(trace.size()) <= lb.max_simulated_rounds(),
            "account_three_party_cost: the algorithm ran longer than "
            "L/2 - 2 rounds; enlarge L (Theorem 3.5's precondition)");

  SimulationAccounting acc;
  acc.rounds = static_cast<int>(trace.size());
  acc.per_round_bound = std::int64_t{6} * lb.highway_count() *
                        net.config().bandwidth;
  for (int t = 0; t < acc.rounds; ++t) {
    std::int64_t charged_this_round = 0;
    for (const congest::TracedMessage& msg :
         trace[static_cast<std::size_t>(t)]) {
      const Owner sender = lb.owner(msg.from, t);
      const Owner receiver_next = lb.owner(msg.to, t + 1);
      if (sender == receiver_next) continue;  // owner already knows it
      if (sender == Owner::kServer) {
        acc.server_fields += msg.fields;  // free hand-over
        continue;
      }
      // Carol or David must transmit this message content.
      if (sender == Owner::kCarol) {
        acc.carol_fields += msg.fields;
      } else {
        acc.david_fields += msg.fields;
      }
      charged_this_round += msg.fields;
      if (!lb.is_highway(msg.from) || !lb.is_highway(msg.to)) {
        acc.only_highway_edges_charged = false;
      }
    }
    acc.max_charged_per_round =
        std::max(acc.max_charged_per_round, charged_this_round);
  }
  return acc;
}

}  // namespace qdc::core
