// Tests for the bound calculators and the Example 1.1 Disjointness
// comparison (classical measured vs quantum accounted).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "comm/problems.hpp"
#include "core/bounds.hpp"
#include "core/disjointness.hpp"
#include "util/bitstring.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::core {
namespace {

TEST(Bounds, MonotonicityAndShapes) {
  // Verification bound grows with n, shrinks with B.
  EXPECT_LT(verification_lower_bound(1 << 10, 16),
            verification_lower_bound(1 << 16, 16));
  EXPECT_GT(verification_lower_bound(1 << 12, 4),
            verification_lower_bound(1 << 12, 64));
  // Optimization bound: W/alpha branch vs sqrt(n) branch.
  const int n = 10000;
  EXPECT_LT(optimization_lower_bound(n, 16, 10.0, 1.0),
            optimization_lower_bound(n, 16, 1e9, 1.0));
  // Beyond the crossover the bound saturates at sqrt(n)/sqrt(B log n).
  const double cross = figure3_crossover_aspect(n, 2.0);
  EXPECT_NEAR(optimization_lower_bound(n, 16, cross, 2.0),
              optimization_lower_bound(n, 16, 100 * cross, 2.0), 1e-9);
  EXPECT_NEAR(cross, 200.0, 1e-9);
}

TEST(Bounds, Theorem35ParametersMultiplyToN) {
  for (const int n : {1 << 10, 1 << 14, 1 << 18}) {
    const auto p = theorem35_parameters(n, 16.0);
    const double product = double(p.length) * double(p.gamma);
    EXPECT_GT(product, 0.2 * n);
    EXPECT_LT(product, 5.0 * n);
  }
}

TEST(Bounds, DisjointnessCrossover) {
  // Quantum wins for b above (pi/2 B D)^2.
  const double cross = disjointness_crossover_bits(4.0, 4);
  EXPECT_GT(disjointness_classical_rounds(static_cast<int>(4 * cross), 4.0, 4),
            disjointness_quantum_rounds(static_cast<int>(4 * cross), 4));
  EXPECT_LT(disjointness_classical_rounds(static_cast<int>(cross / 16), 4.0, 4),
            disjointness_quantum_rounds(static_cast<int>(cross / 16), 4));
}

TEST(Bounds, FieldsToBits) {
  EXPECT_DOUBLE_EQ(fields_to_bits(8, 1024), 80.0);
  EXPECT_THROW(fields_to_bits(0, 4), ContractError);
}

TEST(Disjointness, BothProtocolsDecideCorrectly) {
  Rng rng(5);
  int quantum_errors = 0;
  for (int t = 0; t < 12; ++t) {
    const std::size_t b = 64;
    auto x = BitString::random(b, rng);
    auto y = BitString::random(b, rng);
    if (t % 2 == 0) {
      // Force disjoint: clear y where x is set.
      for (std::size_t i = 0; i < b; ++i) {
        if (x.get(i)) y.set(i, false);
      }
    }
    const auto cmp = compare_disjointness(x, y, /*diameter=*/6,
                                          /*b_bits=*/4, /*trials=*/3, rng);
    EXPECT_EQ(cmp.truth, comm::disjointness(x, y));
    EXPECT_EQ(cmp.classical_answer, cmp.truth);
    // Quantum is one-sided: "intersecting" verdicts are always right;
    // "disjoint" verdicts can err with small probability.
    if (!cmp.quantum_answer) {
      EXPECT_FALSE(cmp.truth);
    } else if (!cmp.truth) {
      ++quantum_errors;
    }
  }
  EXPECT_LE(quantum_errors, 2);
}

TEST(Disjointness, MeasuredClassicalRoundsMatchFormula) {
  Rng rng(7);
  const std::size_t b = 256;
  const int diameter = 8;
  const int b_bits = 4;
  const auto x = BitString::random(b, rng);
  const auto y = BitString::random(b, rng);
  const auto cmp = compare_disjointness(x, y, diameter, b_bits, 1, rng);
  const double predicted =
      disjointness_classical_rounds(static_cast<int>(b), b_bits, diameter);
  // Streaming + answer flood: within a 2D + O(1) additive window.
  EXPECT_GE(cmp.classical_rounds, predicted - 2);
  EXPECT_LE(cmp.classical_rounds, predicted + diameter + 8);
}

TEST(Disjointness, QuantumWinsOnLargeInputsSmallDiameter) {
  Rng rng(9);
  const std::size_t b = 4096;
  BitString x(b), y(b);
  x.set(1234, true);
  y.set(1234, true);  // single witness: hardest Grover case
  const auto cmp =
      compare_disjointness(x, y, /*diameter=*/2, /*b_bits=*/1, 3, rng);
  EXPECT_FALSE(cmp.truth);
  EXPECT_FALSE(cmp.quantum_answer);  // witness found
  EXPECT_LT(cmp.quantum_rounds, cmp.classical_rounds)
      << "quantum " << cmp.quantum_rounds << " vs classical "
      << cmp.classical_rounds;
}

TEST(Disjointness, PinnedNumbersAtFixedSeeds) {
  // Example 1.1 at 6, 10 and 12 qubits. Every figure compare_disjointness
  // reports is pinned exactly, the success probability bit for bit, so a
  // change to the round engine or the statevector cannot move one
  // silently. The inputs are random strings made disjoint, then given
  // `witnesses` common 1-positions. The constants come from libstdc++'s
  // <random> distributions, which the C++ standard leaves
  // implementation-defined.
  struct Pin {
    std::size_t b;
    int witnesses;
    int diameter;
    int b_bits;
    int trials;
    std::uint64_t seed;
    int classical_rounds;
    int grover_queries;
    double quantum_rounds;
    bool quantum_answer;
    std::uint64_t success_probability_bits;
  };
  const Pin pins[] = {
      {64, 2, 6, 4, 3, 64, 28, 4, 54.0, false, 0x3feff94d30fffffdULL},
      {1024, 3, 4, 2, 3, 1024, 520, 14, 116.0, false, 0x3fefffffbb42125cULL},
      {4096, 1, 2, 1, 3, 4096, 4100, 50, 202.0, false, 0x3fefff8d61ea7c81ULL},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    auto x = BitString::random(pin.b, rng);
    auto y = BitString::random(pin.b, rng);
    for (std::size_t i = 0; i < pin.b; ++i) {
      if (x.get(i)) y.set(i, false);
    }
    for (int w = 0; w < pin.witnesses; ++w) {
      const auto i = static_cast<std::size_t>(
          uniform_int(rng, 0, static_cast<std::int64_t>(pin.b) - 1));
      x.set(i, true);
      y.set(i, true);
    }
    const auto cmp = compare_disjointness(x, y, pin.diameter,
                                          pin.b_bits, pin.trials, rng);
    EXPECT_FALSE(cmp.truth) << "b " << pin.b;
    EXPECT_EQ(cmp.classical_rounds, pin.classical_rounds) << "b " << pin.b;
    EXPECT_EQ(cmp.grover_queries, pin.grover_queries) << "b " << pin.b;
    EXPECT_EQ(cmp.quantum_rounds, pin.quantum_rounds) << "b " << pin.b;
    EXPECT_EQ(cmp.quantum_answer, pin.quantum_answer) << "b " << pin.b;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cmp.grover_success_probability),
              pin.success_probability_bits)
        << "b " << pin.b;
  }
}

TEST(Disjointness, RejectsBadParameters) {
  Rng rng(1);
  const auto x = BitString::random(100, rng);  // not a power of two
  EXPECT_THROW(compare_disjointness(x, x, 4, 4, 1, rng), ContractError);
}

}  // namespace
}  // namespace qdc::core
