// Figure 2: the paper's table of previous vs new lower bounds, regenerated
// with (a) the evaluated bound formulas and (b) measured upper-bound round
// counts of this library's verification algorithms on random low-diameter
// networks (the upper bounds the lower bounds must stay below).
//
// Sweep-migrated: random inputs are drawn serially with the bench's legacy
// seed (23) in the historical order, the expensive verifier rows run on the
// sweep harness, and rows print in job-index order — stdout is
// byte-identical to the pre-harness bench at every --sweep-threads value.
#include <cstdio>
#include <string>
#include <vector>

#include "comm/codes.hpp"
#include "congest/network.hpp"
#include "core/bounds.hpp"
#include "dist/tree.hpp"
#include "dist/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::HarnessOptions options = bench::parse_harness_flags(argc, argv);
  bench::SweepHarness harness("bench_fig2_bounds_table", options);
  Rng rng(23);

  std::printf("=== Figure 2: lower bounds (B-model, B = 8 fields) ===\n\n");
  std::printf("B-model distributed network rows "
              "(Omega(sqrt(n / B log n)), quantum + entanglement):\n");
  std::printf("%8s %22s %22s\n", "n", "verification LB", "opt LB (W=n,a=1)");
  for (const int n : {1 << 10, 1 << 14, 1 << 18, 1 << 22}) {
    const double bits = core::fields_to_bits(8, n);
    std::printf("%8d %22.1f %22.1f\n", n,
                core::verification_lower_bound(n, bits),
                core::optimization_lower_bound(n, bits, double(n), 1.0));
  }

  std::printf("\nMeasured verifier upper bounds (rounds, incl. all "
              "sub-runs) vs the evaluated lower bound:\n");
  std::printf("%6s %6s %9s | %7s %7s %7s %7s %7s %7s | %9s\n", "n", "D",
              "LB", "Ham", "ST", "Conn", "Bipart", "Cut", "stConn", "LB<=UB?");
  const std::vector<int> sizes = {64, 128, 256};
  struct VerifierInput {
    int n = 0;
    graph::Graph topo;
    graph::EdgeSubset m;
  };
  std::vector<VerifierInput> inputs;
  for (const int n : sizes) {
    VerifierInput input;
    input.n = n;
    input.topo = graph::random_connected(n, 6.0 / n, rng);
    input.m = graph::random_edge_subset(input.topo, 0.5, rng);
    inputs.push_back(std::move(input));
  }
  const std::vector<std::string> verifier_rows =
      harness.sweep<std::string>(
          "measured_verifiers", static_cast<int>(inputs.size()),
          [&](const util::SweepJob& job) {
            const VerifierInput& input =
                inputs[static_cast<std::size_t>(job.index)];
            const int n = input.n;
            congest::Network net(input.topo,
                                 congest::NetworkConfig{.bandwidth = 8});
            const auto tree = dist::build_bfs_tree(net, 0);
            const auto ham =
                dist::verify_hamiltonian_cycle(net, tree, input.m);
            const auto st = dist::verify_spanning_tree(net, tree, input.m);
            const auto conn = dist::verify_connectivity(net, tree, input.m);
            const auto bip = dist::verify_bipartiteness(net, tree, input.m);
            const auto cut = dist::verify_cut(net, tree, input.m);
            const auto stc =
                dist::verify_st_connectivity(net, tree, input.m, 0, n - 1);
            const double lb =
                core::verification_lower_bound(n, core::fields_to_bits(8, n));
            const int min_ub = std::min(
                {ham.rounds, st.rounds, conn.rounds, bip.rounds, cut.rounds,
                 stc.rounds});
            return bench::strprintf(
                "%6d %6d %9.1f | %7d %7d %7d %7d %7d %7d | %9s\n", n,
                graph::diameter(input.topo), lb, ham.rounds, st.rounds,
                conn.rounds, bip.rounds, cut.rounds, stc.rounds,
                lb <= min_ub ? "yes" : "NO");
          });
  for (const std::string& row : verifier_rows) std::fputs(row.c_str(), stdout);

  std::printf("\nCommunication-complexity rows (Omega(n), two-sided error, "
              "quantum + entanglement):\n");
  std::printf("fooling-set certificates for Gap-Eq (Section 6, via "
              "Gilbert-Varshamov codes, beta = 0.05):\n");
  std::printf("%6s %14s %20s\n", "n", "fool1 size", "GV bound 2^(1-H)n");
  const std::vector<std::size_t> code_sizes = {10, 14, 18};
  const std::vector<std::string> code_rows = harness.sweep<std::string>(
      "greedy_code", static_cast<int>(code_sizes.size()),
      [&](const util::SweepJob& job) {
        const std::size_t n = code_sizes[static_cast<std::size_t>(job.index)];
        const std::size_t delta = std::max<std::size_t>(1, n / 10);
        const auto code = comm::greedy_code(n, 2 * delta);
        return bench::strprintf("%6zu %14zu %20.1f\n", n, code.size(),
                                comm::gilbert_varshamov_bound(n, 2 * delta));
      });
  for (const std::string& row : code_rows) std::fputs(row.c_str(), stdout);

  return 0;
}
