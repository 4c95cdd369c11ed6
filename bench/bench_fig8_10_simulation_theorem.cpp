// Figures 8-10 / Theorem 3.5: the lower-bound network N(Gamma, L) and the
// three-party simulation cost.
//
// Sweeps (Gamma, L, B):
//   * structural columns: nodes, edges, diameter vs Theta(log L);
//   * a real algorithm (BFS-tree construction) run under the harness:
//     measured max charged fields per round vs the 6kB bound, and the
//     highway-only property;
//   * worst-case traffic (every edge saturated every round): the bound
//     must still hold - it is a property of the ownership schedule;
//   * ablation: N' without highways (plain paths + end cliques) has
//     diameter Theta(L) - the trade Section 8 makes explicit.
//
// Sweep-migrated: every row is deterministic (no RNG), so each (Gamma, L)
// or ablation row runs as one sweep job and rows print in job-index order —
// stdout is byte-identical to the pre-harness bench at every
// --sweep-threads value.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/topology.hpp"
#include "core/lb_topology.hpp"
#include "core/simulation.hpp"
#include "dist/tree.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "util/sweep.hpp"

namespace {

using namespace qdc;

class Saturate : public congest::NodeProgram {
 public:
  explicit Saturate(int rounds) : rounds_(rounds) {}
  void on_round(congest::NodeContext& ctx,
                const std::vector<congest::Incoming>&) override {
    if (ctx.round() >= rounds_) {
      ctx.set_output(0);
      ctx.halt();
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, congest::Payload(
                      static_cast<std::size_t>(ctx.bandwidth()), 1));
    }
  }

 private:
  int rounds_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace qdc;
  bench::HarnessOptions options = bench::parse_harness_flags(argc, argv);
  bench::SweepHarness harness("bench_fig8_10_simulation_theorem", options);

  std::printf("=== Figures 8-10 / Theorem 3.5: N(Gamma, L) and the "
              "three-party cost ===\n\n");
  std::printf("%6s %5s %7s %7s %5s %5s | %12s %12s %9s | %12s %12s\n",
              "Gamma", "L", "nodes", "edges", "k", "diam", "bfs-charged",
              "bfs-max/rnd", "highway", "sat-max/rnd", "bound-6kB");
  // L must exceed ~2x the BFS round count for the schedule to apply
  // (Theorem 3.5 simulates algorithms of at most L/2 - 2 rounds).
  const std::vector<std::pair<int, int>> configs{
      {2, 129}, {4, 129}, {4, 257}, {8, 257}};
  const std::vector<std::string> config_rows = harness.sweep<std::string>(
      "gamma_length_rows", static_cast<int>(configs.size()),
      [&](const util::SweepJob& job) {
        const auto [gamma, len] =
            configs[static_cast<std::size_t>(job.index)];
        const auto lb =
            std::make_shared<const core::LbTopologyView>(gamma, len);
        const int diam = qdc::graph::diameter(congest::materialize(*lb));

        congest::Network net(lb, congest::NetworkConfig{.bandwidth = 8});
        const auto tree = dist::build_bfs_tree(net, lb->path_node(0, 1),
                                               {.record_trace = true});
        const auto bfs_acc = core::account_three_party_cost(*lb, net);

        const int t = lb->max_simulated_rounds() - 2;
        net.install([&](congest::NodeId, const congest::NodeContext&) {
          return std::make_unique<Saturate>(t);
        });
        net.run({.max_rounds = t + 2, .record_trace = true});
        const auto sat_acc = core::account_three_party_cost(*lb, net);
        (void)tree;

        return bench::strprintf(
            "%6d %5d %7d %7d %5d %5d | %12lld %12lld %9s | %12lld %12lld\n",
            lb->gamma(), lb->length(), lb->node_count(), lb->edge_count(),
            lb->highway_count(), diam,
            static_cast<long long>(bfs_acc.total_charged()),
            static_cast<long long>(bfs_acc.max_charged_per_round),
            bfs_acc.only_highway_edges_charged &&
                    sat_acc.only_highway_edges_charged
                ? "yes"
                : "NO",
            static_cast<long long>(sat_acc.max_charged_per_round),
            static_cast<long long>(sat_acc.per_round_bound));
      });
  for (const std::string& row : config_rows) std::fputs(row.c_str(), stdout);

  std::printf("\nbandwidth ablation on N(4, 129) (saturating traffic):\n");
  std::printf("%6s %14s %14s\n", "B", "sat-max/round", "bound 6kB");
  const std::vector<int> bandwidths = {2, 4, 8, 16};
  const std::vector<std::string> bandwidth_rows = harness.sweep<std::string>(
      "bandwidth_ablation", static_cast<int>(bandwidths.size()),
      [&](const util::SweepJob& job) {
        const int b = bandwidths[static_cast<std::size_t>(job.index)];
        const auto lb = std::make_shared<const core::LbTopologyView>(4, 129);
        congest::Network net(lb, congest::NetworkConfig{.bandwidth = b});
        const int t = lb->max_simulated_rounds() - 2;
        net.install([&](congest::NodeId, const congest::NodeContext&) {
          return std::make_unique<Saturate>(t);
        });
        net.run({.max_rounds = t + 2, .record_trace = true});
        const auto acc = core::account_three_party_cost(*lb, net);
        return bench::strprintf(
            "%6d %14lld %14lld\n", b,
            static_cast<long long>(acc.max_charged_per_round),
            static_cast<long long>(acc.per_round_bound));
      });
  for (const std::string& row : bandwidth_rows)
    std::fputs(row.c_str(), stdout);

  std::printf("\nhighway ablation: diameter with vs without highways "
              "(Theta(log L) vs Theta(L)):\n");
  std::printf("%6s %12s %14s\n", "L", "diam N", "diam N'(no hwy)");
  const std::vector<int> lengths = {33, 65, 129};
  const std::vector<std::string> highway_rows = harness.sweep<std::string>(
      "highway_ablation", static_cast<int>(lengths.size()),
      [&](const util::SweepJob& job) {
        const int len = lengths[static_cast<std::size_t>(job.index)];
        const core::LbTopologyView lb(3, len);
        // N': paths plus end cliques only.
        qdc::graph::Graph plain(3 * lb.length());
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j + 1 < lb.length(); ++j) {
            plain.add_edge(i * lb.length() + j, i * lb.length() + j + 1);
          }
        }
        for (int a = 0; a < 3; ++a) {
          for (int b = a + 1; b < 3; ++b) {
            plain.add_edge(a * lb.length(), b * lb.length());
            plain.add_edge((a + 1) * lb.length() - 1,
                           (b + 1) * lb.length() - 1);
          }
        }
        return bench::strprintf("%6d %12d %14d\n", lb.length(),
                                qdc::graph::diameter(congest::materialize(lb)),
                                qdc::graph::diameter(plain));
      });
  for (const std::string& row : highway_rows) std::fputs(row.c_str(), stdout);

  return 0;
}
