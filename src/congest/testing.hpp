// Test-only backdoors into the CONGEST Network, quarantined behind a
// friend helper so the production Network surface does not advertise
// tamper hooks. Tests use these to prove that the ModelAuditor second
// accountant rejects under-charged or tampered runs; nothing under src/
// may call them outside this translation unit.
#pragma once

#include <functional>

#include "congest/network.hpp"
#include "congest/stats.hpp"

namespace qdc::congest::testing {

class NetworkTestAccess {
 public:
  /// Stages `message` on u's `port` without charging the per-edge budget,
  /// simulating a send path that under-counts bandwidth. The next run's
  /// ModelAuditor must reject the offending round.
  static void stage_unchecked(Network& net, NodeId u, int port,
                              Payload message);

  /// Mutates the RunStats that run() is about to report, right before the
  /// final audit. Lets tests prove the second accountant rejects tampered
  /// bandwidth accounting.
  static void set_stats_tamper(Network& net,
                               std::function<void(RunStats&)> tamper);

  /// Excludes `u` from every frontier the event-driven wake rule builds
  /// (round 0 still computes every live node), simulating a scheduler
  /// that drops a pending receiver. The next RunOptions::frontier run's
  /// ModelAuditor must reject the round after a message reaches u.
  static void suppress_frontier_node(Network& net, NodeId u);
};

}  // namespace qdc::congest::testing
