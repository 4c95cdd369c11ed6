// Tests for the statevector simulator and the small quantum protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <numbers>
#include <string>
#include <vector>

#include "quantum/gates.hpp"
#include "quantum/grover.hpp"
#include "quantum/protocols.hpp"
#include "quantum/state.hpp"
#include "quantum/testing.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qdc::quantum {
namespace {

TEST(StateVector, StartsInZero) {
  StateVector s(3);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_DOUBLE_EQ(s.probability_of(0), 1.0);
  EXPECT_DOUBLE_EQ(s.norm_squared(), 1.0);
}

TEST(StateVector, HadamardCreatesSuperposition) {
  StateVector s(1);
  s.apply(hadamard(), 0);
  EXPECT_NEAR(s.probability_of(0), 0.5, 1e-12);
  EXPECT_NEAR(s.probability_of(1), 0.5, 1e-12);
  s.apply(hadamard(), 0);  // H^2 = I
  EXPECT_NEAR(s.probability_of(0), 1.0, 1e-12);
}

TEST(StateVector, PauliXFlips) {
  StateVector s(2);
  s.apply(pauli_x(), 1);
  EXPECT_NEAR(s.probability_of(0b10), 1.0, 1e-12);
}

TEST(StateVector, CnotEntangles) {
  StateVector s(2);
  make_epr(s, 0, 1);
  EXPECT_NEAR(s.probability_of(0b00), 0.5, 1e-12);
  EXPECT_NEAR(s.probability_of(0b11), 0.5, 1e-12);
  EXPECT_NEAR(s.probability_of(0b01), 0.0, 1e-12);
}

TEST(StateVector, GatesPreserveNorm) {
  StateVector s(4);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const int q = static_cast<int>(uniform_int(rng, 0, 3));
    switch (i % 5) {
      case 0: s.apply(hadamard(), q); break;
      case 1: s.apply(ry(0.3 * i), q); break;
      case 2: s.apply(rz(0.7 * i), q); break;
      case 3: s.apply(phase_t(), q); break;
      case 4: s.cnot(q, (q + 1) % 4); break;
    }
    ASSERT_NEAR(s.norm_squared(), 1.0, 1e-9);
  }
}

TEST(StateVector, MeasurementCollapsesEprPair) {
  Rng rng(7);
  int ones = 0;
  for (int trial = 0; trial < 200; ++trial) {
    StateVector s(2);
    make_epr(s, 0, 1);
    const bool a = s.measure(0, rng);
    const bool b = s.measure(1, rng);
    EXPECT_EQ(a, b);  // perfectly correlated
    ones += a ? 1 : 0;
  }
  EXPECT_GT(ones, 60);  // and roughly unbiased
  EXPECT_LT(ones, 140);
}

TEST(StateVector, SwapMovesAmplitude) {
  StateVector s(2);
  s.apply(pauli_x(), 0);
  s.swap(0, 1);
  EXPECT_NEAR(s.probability_of(0b10), 1.0, 1e-12);
}

TEST(StateVector, SwapSameQubitIsNoOp) {
  // swap(a, a) used to throw through apply_controlled's distinct-qubits
  // contract; it is now a documented no-op.
  StateVector s(3);
  s.apply(hadamard(), 0);
  s.apply(ry(0.7), 1);
  const std::vector<Amplitude> before = s.amplitudes();
  s.swap(1, 1);
  EXPECT_EQ(s.amplitudes(), before);
  // An out-of-range qubit still violates the contract, even when a == b.
  EXPECT_THROW(s.swap(3, 3), ContractError);
  EXPECT_THROW(s.swap(-1, -1), ContractError);
}

TEST(StateVector, ReflectAboutUniformMatchesHadamardSandwich) {
  // reflect_about_uniform() applies 2|s><s| - I in two passes; the circuit
  // it replaces is H on every qubit, a phase flip on every index but 0,
  // and H on every qubit again. They agree up to rounding on seeded states
  // with complex, uneven amplitudes; 13 and 16 qubits split the sum into
  // several shards. The opposite sign, I - 2|s><s|, keeps every
  // probability but fails here.
  Rng rng(43);
  for (const int n : {1, 2, 6, 13, 16}) {
    StateVector direct(n);
    for (int q = 0; q < n; ++q) {
      direct.apply(ry(3.0 * uniform_real(rng)), q);
      direct.apply(rz(3.0 * uniform_real(rng)), q);
    }
    for (int q = 0; q + 1 < n; ++q) direct.cnot(q, q + 1);
    for (int q = 0; q < n; ++q) direct.apply(ry(3.0 * uniform_real(rng)), q);
    StateVector sandwich = direct;
    direct.reflect_about_uniform();
    for (int q = 0; q < n; ++q) sandwich.apply(hadamard(), q);
    sandwich.oracle_phase([](std::size_t i) { return i != 0; });
    for (int q = 0; q < n; ++q) sandwich.apply(hadamard(), q);
    double worst = 0.0;
    for (std::size_t i = 0; i < direct.dimension(); ++i) {
      worst = std::max(worst,
                       std::abs(direct.amplitude(i) - sandwich.amplitude(i)));
    }
    EXPECT_LE(worst, 1e-14) << "qubits " << n;
  }
}

TEST(StateVector, MeasureAllRoundingResidueFallsBackToNonzeroState) {
  // (|00> + |01>)/sqrt(2): the top basis states carry exactly zero
  // probability. Inject a threshold beyond the accumulated measure mass —
  // the situation floating-point rounding can produce when the drawn r is
  // within an ulp of the total — and the collapse must land on the
  // highest-index basis state with NONZERO probability (index 1), not
  // blindly on amplitudes.size() - 1 (index 3, probability zero).
  StateVector s(2);
  s.apply(hadamard(), 0);
  const std::size_t outcome =
      StateVectorTestAccess::collapse_all_residue(s, 1.25);
  EXPECT_EQ(outcome, 1u);
  EXPECT_DOUBLE_EQ(s.probability_of(1), 1.0);
}

TEST(StateVector, MeasureAllNeverLandsOnZeroProbabilityState) {
  // Property guard for the same bug: whatever measure_all returns must
  // have carried probability before the collapse.
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    StateVector s(4);
    s.apply(hadamard(), 0);
    s.apply(ry(0.17 * trial), 1);  // qubits 2, 3 stay |0>: top half is zero
    const double mass_before = s.norm_squared();
    std::vector<double> probs(s.dimension());
    for (std::size_t i = 0; i < s.dimension(); ++i) {
      probs[i] = s.probability_of(i);
    }
    const std::size_t outcome = s.measure_all(rng);
    EXPECT_GT(probs[outcome], 0.0) << "trial " << trial;
    EXPECT_NEAR(mass_before, 1.0, 1e-12);
  }
}

TEST(StateVector, MeasureZeroProbabilityBranchNamesQubitAndBranch) {
  // |1> on qubit 0: the |0> branch has probability exactly zero. Forcing
  // it (threshold >= 1 never selects the one-branch) must throw a
  // ModelError whose message names both the branch and the qubit.
  StateVector s(2);
  s.apply(pauli_x(), 0);
  try {
    StateVectorTestAccess::collapse_qubit_residue(s, 0, 1.5);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("|0>"), std::string::npos) << msg;
    EXPECT_NE(msg.find("qubit 0"), std::string::npos) << msg;
  }
}

TEST(Teleport, TransfersArbitraryState) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const double theta = 0.31 * trial;
    const double phi = 1.7 * trial;
    // Prepare |psi> on qubit 0; EPR on (1, 2).
    StateVector s(3);
    s.apply(ry(theta), 0);
    s.apply(rz(phi), 0);
    make_epr(s, 1, 2);
    teleport(s, /*source=*/0, /*epr_a=*/1, /*epr_b=*/2, rng);
    // Compare qubit 2 against a directly prepared reference.
    StateVector ref(1);
    ref.apply(ry(theta), 0);
    ref.apply(rz(phi), 0);
    EXPECT_NEAR(s.probability_one(2), ref.probability_one(0), 1e-9)
        << "trial " << trial;
  }
}

TEST(Superdense, RoundTripsAllFourMessages) {
  Rng rng(13);
  for (const bool b0 : {false, true}) {
    for (const bool b1 : {false, true}) {
      const auto [d0, d1] = superdense_roundtrip(b0, b1, rng);
      EXPECT_EQ(d0, b0);
      EXPECT_EQ(d1, b1);
    }
  }
}

TEST(Chsh, QuantumBeatsClassicalBound) {
  Rng rng(17);
  int q_wins = 0, c_wins = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const bool x = coin(rng);
    const bool y = coin(rng);
    if (chsh_play_quantum(x, y, rng)) ++q_wins;
    if (chsh_play_classical(x, y)) ++c_wins;
  }
  const double q = static_cast<double>(q_wins) / trials;
  const double c = static_cast<double>(c_wins) / trials;
  // Tsirelson: quantum ~ cos^2(pi/8) ~ 0.8536; classical <= 0.75.
  EXPECT_NEAR(q, 0.8536, 0.02);
  EXPECT_NEAR(c, 0.75, 0.02);
  EXPECT_GT(q, 0.80);
}

TEST(Grover, FindsUniqueMarkedItem) {
  Rng rng(19);
  for (int q = 3; q <= 8; ++q) {
    const std::size_t target = (std::size_t{1} << q) - 3;
    const auto r = grover_search(
        q, [target](std::size_t i) { return i == target; }, rng);
    EXPECT_GT(r.success_probability, 0.8) << "qubits " << q;
    EXPECT_LE(r.oracle_queries,
              static_cast<int>(std::ceil(
                  std::numbers::pi / 4.0 * std::sqrt(double(1 << q)))) +
                  1);
  }
}

TEST(Grover, NoMarkedItemYieldsUnmarkedMeasurement) {
  Rng rng(23);
  const auto r =
      grover_search(6, [](std::size_t) { return false; }, rng);
  EXPECT_FALSE(r.is_marked);
  EXPECT_DOUBLE_EQ(r.success_probability, 0.0);
}

TEST(Grover, MultipleMarkedItemsSpeedUp) {
  Rng rng(29);
  const auto r = grover_search(
      8, [](std::size_t i) { return i % 16 == 0; }, rng);  // M = 16, N = 256
  EXPECT_GT(r.success_probability, 0.8);
  EXPECT_LT(r.oracle_queries, 6);  // ~ pi/4 sqrt(16) = 3.1
}

TEST(Grover, EvaluatesOracleOncePerIndex) {
  // The search reads the caller's predicate once per index into a mask
  // and once more for the measured index, whatever the iteration count:
  // 2^n + 1 calls, not 2^n per iteration. 13 qubits shards the scan.
  util::ThreadPool four(4);
  for (util::ThreadPool* p : std::initializer_list<util::ThreadPool*>{
           nullptr, &four}) {
    for (const int qubits : {10, 13}) {
      const std::size_t target = (std::size_t{1} << qubits) - 300;
      std::atomic<std::size_t> calls{0};
      Rng rng(37);
      const auto r = grover_search(
          qubits,
          [&calls, target](std::size_t i) {
            calls.fetch_add(1, std::memory_order_relaxed);
            return i == target;
          },
          rng, /*iterations=*/-1, p);
      EXPECT_GT(r.iterations, 20) << "qubits " << qubits;
      EXPECT_EQ(calls.load(), (std::size_t{1} << qubits) + 1)
          << "qubits " << qubits;
      EXPECT_GT(r.success_probability, 0.99) << "qubits " << qubits;
    }
  }
}

TEST(Grover, OptimalIterationCounts) {
  EXPECT_EQ(grover_optimal_iterations(4, 1), 1);    // exact for N=4
  EXPECT_EQ(grover_optimal_iterations(1024, 1), 25);
  EXPECT_LE(grover_optimal_iterations(1024, 4), 12);
}

TEST(Grover, SuccessProbabilityMatchesClosedForm) {
  // k iterations with M of N items marked leave sin^2((2k+1) theta) on
  // the marked items, theta = asin(sqrt(M / N)). This fences what the
  // success-probability bits mean: a kernel change may move their last
  // bits (Disjointness.PinnedNumbersAtFixedSeeds pins them), not the value.
  for (int n = 4; n <= 16; ++n) {
    const std::size_t items = std::size_t{1} << n;
    for (const std::size_t m : std::initializer_list<std::size_t>{1, 3, 17}) {
      if (4 * m > items) continue;
      // An odd multiplier permutes [0, 2^n), so exactly m indices land
      // below m, spread over the range.
      const auto marked = [items, m](std::size_t i) {
        return ((i * 0x9e3779b97f4a7c15ULL) & (items - 1)) < m;
      };
      Rng rng(41);
      const GroverResult r = grover_search(n, marked, rng);
      const long double theta = std::asin(std::sqrt(
          static_cast<long double>(m) / static_cast<long double>(items)));
      const long double amp = std::sin((2 * r.iterations + 1) * theta);
      EXPECT_NEAR(r.success_probability, static_cast<double>(amp * amp),
                  1e-10)
          << "n " << n << " M " << m;
    }
  }
}

TEST(StateVector, RejectsBadArguments) {
  EXPECT_THROW(StateVector(0), ContractError);
  EXPECT_THROW(StateVector(30), ContractError);
  StateVector s(2);
  EXPECT_THROW(s.apply(hadamard(), 2), ContractError);
  EXPECT_THROW(s.cnot(0, 0), ContractError);
}

TEST(StateVector, GuardsMeasurementDrawOutsideUnitInterval) {
  // The collapse kernels take a uniform draw r in [0, 1); a draw outside
  // that is caller error (ContractError), distinct from the ModelError the
  // unguarded residue door raises on genuinely impossible branches. The
  // *_with doors go through the same guarded path measure()/measure_all()
  // use.
  StateVector s(2);
  s.apply(hadamard(), 0);
  EXPECT_THROW(StateVectorTestAccess::collapse_qubit_with(s, 0, 1.5),
               ContractError);
  EXPECT_THROW(StateVectorTestAccess::collapse_qubit_with(s, 0, -0.1),
               ContractError);
  EXPECT_THROW(StateVectorTestAccess::collapse_qubit_with(s, 5, 0.5),
               ContractError);
  EXPECT_THROW(StateVectorTestAccess::collapse_all_with(s, 1.0),
               ContractError);
  EXPECT_THROW(StateVectorTestAccess::collapse_all_with(s, -0.25),
               ContractError);
  // The guard message names the offending argument.
  try {
    StateVectorTestAccess::collapse_qubit_with(s, 0, 1.5);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("r = "), std::string::npos) << msg;
    EXPECT_NE(msg.find("[0, 1)"), std::string::npos) << msg;
  }
  // In-contract draws still pass through the guarded doors.
  StateVector t(1);
  t.apply(pauli_x(), 0);
  EXPECT_TRUE(StateVectorTestAccess::collapse_qubit_with(t, 0, 0.999));
}

TEST(StateVector, GuardsFidelityAndProbabilityArguments) {
  StateVector a(2);
  StateVector b(3);
  EXPECT_THROW(a.fidelity(b), ContractError);
  EXPECT_THROW(a.probability_of(4), ContractError);
  try {
    a.fidelity(b);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("this = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("other = 3"), std::string::npos) << msg;
  }
  try {
    a.probability_of(4);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("basis = 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dimension = 4"), std::string::npos) << msg;
  }
}

TEST(Grover, QubitCapMatchesStateVector) {
  // grover_search used to stop at 20 qubits while StateVector documented
  // 24; both now share kMaxQubits.
  Rng rng(31);
  EXPECT_THROW(grover_search(kMaxQubits + 1,
                             [](std::size_t) { return false; }, rng),
               ContractError);
  // 21 qubits (beyond the old cap) is now legal; zero iterations keeps the
  // run cheap — this only checks the contract, not the search.
  const auto r = grover_search(
      21, [](std::size_t i) { return i == 5; }, rng, /*iterations=*/0);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace qdc::quantum
