// Figure 7: the Gap-Equality -> Gap-Ham gadget. Cycle counts as a function
// of the Hamming distance delta (x == y gives one Hamiltonian cycle; delta
// mismatches give delta + 1 disjoint cycles, i.e. far from Hamiltonian),
// plus gap-instance sweeps matching the (beta n)-Eq promise.
#include <cstdio>
#include <numeric>

#include "comm/problems.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(41);

  std::printf("=== Figure 7: Gap-Eq -> Ham gadget ===\n\n");
  std::printf("cycle count vs Hamming distance (n = 64, 200 trials per "
              "delta):\n");
  std::printf("%8s %12s %14s %12s\n", "delta", "cycles", "Hamiltonian",
              "trials-ok");
  const std::size_t n = 64;
  for (const int delta : {0, 1, 2, 4, 8, 16, 32}) {
    int ok = 0;
    int cycles = -1;
    for (int t = 0; t < 200; ++t) {
      auto x = BitString::random(n, rng);
      auto y = x;
      std::vector<std::size_t> pos(n);
      std::iota(pos.begin(), pos.end(), 0u);
      std::shuffle(pos.begin(), pos.end(), rng);
      for (int d = 0; d < delta; ++d) y.flip(pos[static_cast<std::size_t>(d)]);
      const auto owned = gadgets::build_eq_ham_graph(x, y);
      cycles = graph::cycle_count_degree_two(owned.g);
      const int expect = delta == 0 ? 1 : delta + 1;
      if (cycles == expect &&
          graph::is_hamiltonian_cycle(owned.g) == (delta == 0)) {
        ++ok;
      }
    }
    std::printf("%8d %12d %14s %12d/200\n", delta, cycles,
                cycles == 1 ? "yes" : "no", ok);
  }

  std::printf("\n(beta n)-Eq promise instances (beta = 0.2, n = 80): the "
              "reduction separates the promise sides by a Theta(n) cycle "
              "gap:\n");
  int equal_ok = 0, far_ok = 0, far_min_cycles = 1 << 30;
  for (int t = 0; t < 200; ++t) {
    const auto inst = comm::random_gap_eq(80, 16, rng);
    const auto owned = gadgets::build_eq_ham_graph(inst.x, inst.y);
    const int cycles = graph::cycle_count_degree_two(owned.g);
    if (inst.equal) {
      equal_ok += cycles == 1 ? 1 : 0;
    } else {
      far_ok += cycles >= 17 ? 1 : 0;  // > delta cycles
      far_min_cycles = std::min(far_min_cycles, cycles);
    }
  }
  std::printf("  equal side: %d correct (single Hamiltonian cycle)\n",
              equal_ok);
  std::printf("  far side:   %d correct (>= delta+1 cycles; min observed "
              "%d)\n",
              far_ok, far_min_cycles);

  return 0;
}
