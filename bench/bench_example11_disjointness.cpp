// Example 1.1: distributed Set Disjointness - classical streaming
// (measured on the CONGEST simulator) vs the Grover-based quantum protocol
// (search simulated exactly; rounds = oracle queries x 2D + D). The table
// sweeps the input size b and shows the crossover the paper uses to argue
// that Disjointness cannot power quantum lower bounds.
#include <cstdio>

#include "core/bounds.hpp"
#include "core/disjointness.hpp"
#include "harness.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(61);
  const int diameter = 3;
  const int bits = 2;

  std::printf("=== Example 1.1: Disjointness, classical vs quantum "
              "(D=%d, B=%d bits/round) ===\n\n",
              diameter, bits);
  std::printf("%7s %17s %16s %10s %12s %9s\n", "b", "classical-rounds",
              "quantum-rounds", "winner", "grover-p", "answers");
  for (const std::size_t b : {16, 64, 256, 1024, 4096}) {
    BitString x = BitString::random(b, rng);
    BitString y = BitString::random(b, rng);
    // Plant exactly one witness (hardest quantum case; classical unmoved).
    for (std::size_t i = 0; i < b; ++i) {
      if (x.get(i)) y.set(i, false);
    }
    x.set(b / 3, true);
    y.set(b / 3, true);
    const auto cmp =
        core::compare_disjointness(x, y, diameter, bits, 3, rng);
    std::printf("%7zu %17d %16.0f %10s %12.3f %9s\n", b,
                cmp.classical_rounds, cmp.quantum_rounds,
                cmp.quantum_rounds < cmp.classical_rounds ? "quantum"
                                                          : "classical",
                cmp.grover_success_probability,
                (cmp.classical_answer == cmp.truth &&
                 cmp.quantum_answer == cmp.truth)
                    ? "both-ok"
                    : "CHECK");
  }
  std::printf("\npredicted crossover: b* = ((pi/2) B D)^2 = %.0f bits "
              "(classical wins below, quantum above)\n",
              core::disjointness_crossover_bits(bits, diameter));
  std::printf("paper: quantum O(sqrt(b) D) via [AA05] beats the classical "
              "Omega~(b/B) once b >> (BD)^2 - which is why the Simulation "
              "Theorem must avoid Disjointness (Section 1).\n");

  return 0;
}
