// Figures 4-6 (and Lemma 7.2 / C.3): the IPmod3 -> Hamiltonian-cycle
// gadget. Correctness sweeps (exhaustive for small n, randomized for
// larger) and the structural invariants of Observation 7.1. The cost of
// building the gadget is timed by perfbench's paper_grid workload
// (gadgets.build_s), not here.
#include <cstdio>

#include "comm/problems.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace {

using namespace qdc;

void correctness_tables() {
  std::printf("=== Figures 4-6: IPmod3 -> Ham gadget ===\n\n");
  std::printf("exhaustive check, all (x, y) pairs per n:\n");
  std::printf("%4s %10s %10s %8s\n", "n", "pairs", "correct", "nodes");
  for (int n = 1; n <= 5; ++n) {
    int pairs = 0, correct = 0;
    int nodes = 0;
    for (int xv = 0; xv < (1 << n); ++xv) {
      for (int yv = 0; yv < (1 << n); ++yv) {
        BitString x(static_cast<std::size_t>(n)),
            y(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
          x.set(i, (xv >> i) & 1);
          y.set(i, (yv >> i) & 1);
        }
        const auto owned = gadgets::build_ip_mod3_ham_graph(x, y);
        nodes = owned.g.node_count();
        ++pairs;
        if (graph::is_hamiltonian_cycle(owned.g) ==
            !comm::ip_mod3_is_zero(x, y)) {
          ++correct;
        }
      }
    }
    std::printf("%4d %10d %10d %8d\n", n, pairs, correct, nodes);
  }

  std::printf("\nrandomized check at larger n (1000 instances each):\n");
  std::printf("%6s %10s %10s\n", "n", "correct", "graph nodes");
  Rng rng(31);
  for (const std::size_t n : {16, 64, 256, 1024}) {
    int correct = 0;
    int nodes = 0;
    for (int t = 0; t < 1000; ++t) {
      const auto x = BitString::random(n, rng);
      const auto y = BitString::random(n, rng);
      const auto owned = gadgets::build_ip_mod3_ham_graph(x, y);
      nodes = owned.g.node_count();
      if (graph::is_hamiltonian_cycle(owned.g) ==
          !comm::ip_mod3_is_zero(x, y)) {
        ++correct;
      }
    }
    std::printf("%6zu %10d %10d\n", n, correct, nodes);
  }
  std::printf("\n(Observation 7.1 matching structure is enforced by unit "
              "tests; every node has degree 2 = one Carol + one David "
              "edge.)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_harness_flags(argc, argv);
  correctness_tables();
  return 0;
}
