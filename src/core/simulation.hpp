// The Quantum Simulation Theorem harness (Theorem 3.5, Section 8,
// Appendix D), executably.
//
// Any distributed algorithm run on N(Gamma, L) with tracing enabled can be
// re-accounted as a three-party (Carol / David / Server) execution: at time
// t the parties own the node sets S_t^C / S_t^D / S_t^S of Equations
// (36)-(38), and a message sent at round t from a node of owner P to a node
// whose owner at t+1 is Q != P must be handed over. Handovers FROM the
// server are free (Definition 3.1); handovers from Carol or David are
// charged. The proof's case analysis shows only highway-to-highway edges
// ever produce charges, at most 6 k B fields per round - the harness
// verifies both facts on the actual message trace and reports the totals,
// which is exactly the O(B log L) per-round cost the theorem converts into
// distributed lower bounds.
#pragma once

#include "congest/network.hpp"
#include "core/lb_topology.hpp"

namespace qdc::core {

struct SimulationAccounting {
  int rounds = 0;
  std::int64_t carol_fields = 0;   ///< charged fields sent by Carol
  std::int64_t david_fields = 0;   ///< charged fields sent by David
  std::int64_t server_fields = 0;  ///< free fields handed over by the server
  std::int64_t max_charged_per_round = 0;
  bool only_highway_edges_charged = true;
  std::int64_t per_round_bound = 0;  ///< 6 k B (Theorem 3.5's constant)
  std::int64_t total_charged() const { return carol_fields + david_fields; }
};

/// Re-accounts the traced execution of `net` (which must have been built
/// over `lb` or its materialized graph, run with record_trace enabled and
/// for at most lb.max_simulated_rounds() rounds) as the three-party
/// simulation.
SimulationAccounting account_three_party_cost(const LbTopologyView& lb,
                                              const congest::Network& net);

}  // namespace qdc::core
