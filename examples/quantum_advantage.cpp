// Example 1.1 from the paper: the one distributed problem in this story
// where quantum communication genuinely wins - Set Disjointness between
// two nodes at distance D.
//
//   $ ./quantum_advantage [b] [diameter] [bandwidth_bits]
//     (b a power of two in 2..4096, diameter in 1..256, bandwidth in 1..64)
#include <cstdio>

#include "args.hpp"
#include "core/bounds.hpp"
#include "core/disjointness.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  const examples::Args args(argc, argv, 3,
                            "quantum_advantage [b: power of two in 2..4096] "
                            "[diameter: 1..256] [bandwidth_bits: 1..64]");
  const auto b = static_cast<std::size_t>(args.integer(1, 2, 4096, 1024));
  if ((b & (b - 1)) != 0) args.fail();
  const int diameter = static_cast<int>(args.integer(2, 1, 256, 3));
  const int bits = static_cast<int>(args.integer(3, 1, 64, 2));
  Rng rng(7);

  BitString x = BitString::random(b, rng);
  BitString y = BitString::random(b, rng);
  // Plant exactly one witness so Grover faces the hardest (M = 1) case.
  for (std::size_t i = 0; i < b; ++i) {
    if (x.get(i)) y.set(i, false);
  }
  x.set(b / 3, true);
  y.set(b / 3, true);

  const auto cmp =
      core::compare_disjointness(x, y, diameter, bits, /*trials=*/3, rng);
  std::printf("Set Disjointness, b=%zu bits, D=%d, B=%d bits/round\n", b,
              diameter, bits);
  std::printf("  truth:      %s\n", cmp.truth ? "disjoint" : "intersecting");
  std::printf("  classical:  %-12s  %6d rounds (measured CONGEST run)\n",
              cmp.classical_answer ? "disjoint" : "intersecting",
              cmp.classical_rounds);
  std::printf("  quantum:    %-12s  %6.0f rounds (%d Grover queries x 2D)\n",
              cmp.quantum_answer ? "disjoint" : "intersecting",
              cmp.quantum_rounds, cmp.grover_queries);
  std::printf("  Grover success mass before measuring: %.3f\n",
              cmp.grover_success_probability);
  std::printf(
      "  paper formulas: classical ~ b/B + D = %.0f, quantum ~ "
      "(pi/4)sqrt(b)*2D + D = %.0f, crossover at b ~ %.0f\n",
      core::disjointness_classical_rounds(static_cast<int>(b), bits,
                                          diameter),
      core::disjointness_quantum_rounds(static_cast<int>(b), diameter),
      core::disjointness_crossover_bits(bits, diameter));
  return 0;
}
