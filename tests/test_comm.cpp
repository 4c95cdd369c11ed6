// Tests for the communication-complexity layer: problems, the Server
// model, the two-party simulation of Section 3.1, codes and fooling sets,
// Paturi degrees and the Lemma 3.2 transcript-guessing strategy.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "comm/codes.hpp"
#include "comm/degree.hpp"
#include "comm/lemma32.hpp"
#include "comm/problems.hpp"
#include "comm/server_model.hpp"
#include "util/bitstring.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace qdc::comm {
namespace {

TEST(Problems, Evaluators) {
  const auto x = BitString::parse("1010");
  const auto y = BitString::parse("0110");
  EXPECT_FALSE(equality(x, y));
  EXPECT_TRUE(equality(x, x));
  EXPECT_FALSE(disjointness(x, y));  // common position 2 (0-indexed 2)
  EXPECT_TRUE(disjointness(BitString::parse("1010"), BitString::parse("0101")));
  EXPECT_EQ(inner_product_mod(x, y, 2), 1);
  EXPECT_EQ(inner_product_mod(x, x, 3), 2);
  EXPECT_FALSE(ip_mod3_is_zero(x, x));
  EXPECT_TRUE(ip_mod3_is_zero(BitString::parse("111"), BitString::parse("111")));
}

TEST(BitStringTest, HammingDistance) {
  for (const std::size_t n : {1u, 12u, 64u}) {
    BitString x(n);
    for (std::size_t i = 0; i < n; i += 3) x.set(i, true);
    EXPECT_EQ(x.hamming_distance(x), 0u) << "n=" << n;
    BitString one_off = x;
    one_off.flip(n / 2);
    EXPECT_EQ(x.hamming_distance(one_off), 1u) << "n=" << n;
    EXPECT_EQ(one_off.hamming_distance(x), 1u) << "n=" << n;
    BitString complement = x;
    for (std::size_t i = 0; i < n; ++i) complement.flip(i);
    EXPECT_EQ(x.hamming_distance(complement), n) << "n=" << n;
  }
  EXPECT_THROW(BitString(3).hamming_distance(BitString(4)), ContractError);
}

TEST(Problems, GapEqInstancesRespectPromise) {
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    const auto inst = random_gap_eq(24, 6, rng);
    if (inst.equal) {
      EXPECT_EQ(inst.x, inst.y);
    } else {
      EXPECT_GT(inst.x.hamming_distance(inst.y), 6u);
    }
  }
}

TEST(Problems, IpMod3PromiseBlocksContributeAtMostOne) {
  Rng rng(9);
  const auto inst = random_ip_mod3_promise(10, rng);
  EXPECT_EQ(inst.x.size(), 40u);
  for (std::size_t b = 0; b < 10; ++b) {
    std::size_t block_ip = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      block_ip += (inst.x.get(4 * b + i) && inst.y.get(4 * b + i)) ? 1 : 0;
    }
    EXPECT_LE(block_ip, 1u);
  }
}

TEST(ServerModel, StreamProtocolComputesAndCharges) {
  const auto protocol = make_stream_to_server_protocol(
      [](const BitString& a, const BitString& b) { return equality(a, b); },
      8);
  const auto x = BitString::parse("10110010");
  const auto r_eq = run_server_protocol(protocol, x, x);
  EXPECT_TRUE(r_eq.output);
  EXPECT_EQ(r_eq.carol_bits, 8);
  EXPECT_EQ(r_eq.david_bits, 8);
  EXPECT_EQ(r_eq.cost(), 16);
  EXPECT_GT(r_eq.server_bits, 0);  // the free announcement

  const auto y = BitString::parse("10110011");
  EXPECT_FALSE(run_server_protocol(protocol, x, y).output);
}

TEST(ServerModel, TwoPartySimulationMatchesCostAndOutput) {
  // Section 3.1: classically, the server buys nothing.
  const auto protocol = make_stream_to_server_protocol(
      [](const BitString& a, const BitString& b) {
        return disjointness(a, b);
      },
      10);
  Rng rng(11);
  for (int t = 0; t < 30; ++t) {
    const auto x = BitString::random(10, rng);
    const auto y = BitString::random(10, rng);
    const auto server_run = run_server_protocol(protocol, x, y);
    const auto two_party = simulate_server_by_two_party(protocol, x, y);
    EXPECT_EQ(two_party.output, server_run.output);
    EXPECT_EQ(two_party.cost(), server_run.cost());
    EXPECT_EQ(two_party.output, disjointness(x, y));
  }
}

TEST(ServerModel, HashingEqualityIsCheapAndOneSided) {
  Rng rng(13);
  const int k = 8;
  const auto protocol = make_hashing_equality_protocol(32, k);
  int false_accepts = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto shared = BitString::random(32 * k, rng);
    const auto x = BitString::random(32, rng);
    // Equal inputs: always accepted.
    const auto same = run_server_protocol(protocol, x, x, shared);
    EXPECT_TRUE(same.output);
    EXPECT_EQ(same.cost(), k + 1);
    // Unequal inputs: accepted with probability 2^-k.
    auto y = x;
    y.flip(static_cast<std::size_t>(t % 32));
    if (run_server_protocol(protocol, x, y, shared).output) ++false_accepts;
  }
  EXPECT_LE(false_accepts, trials / 16);  // ~ trials * 2^-8 expected

  // The simulation argument also applies to randomized protocols (shared
  // randomness is shared by all five simulated parties).
  const auto shared = BitString::random(32 * k, rng);
  const auto x = BitString::random(32, rng);
  const auto sim = simulate_server_by_two_party(protocol, x, x, shared);
  EXPECT_TRUE(sim.output);
  EXPECT_EQ(sim.cost(), k + 1);
}

TEST(Codes, GreedyMeetsGilbertVarshamov) {
  for (const auto& [n, d] : std::vector<std::pair<std::size_t, std::size_t>>{
           {8, 3}, {10, 4}, {12, 5}}) {
    const auto code = greedy_code(n, d);
    EXPECT_TRUE(has_min_distance(code, d));
    EXPECT_GE(static_cast<double>(code.size()),
              gilbert_varshamov_bound(n, d) - 1e-9)
        << "n=" << n << " d=" << d;
  }
}

// The lexicode by exhaustive rescan: each word, in increasing order, is
// kept when it is at distance >= d from every word kept so far.
std::vector<BitString> reference_lexicode(std::size_t n, std::size_t d) {
  std::vector<BitString> code;
  for (std::size_t v = 0; v < (std::size_t{1} << n); ++v) {
    BitString s(n);
    for (std::size_t i = 0; i < n; ++i) s.set(i, (v >> i) & 1);
    bool ok = true;
    for (const BitString& c : code) {
      if (c.hamming_distance(s) < d) {
        ok = false;
        break;
      }
    }
    if (ok) code.push_back(std::move(s));
  }
  return code;
}

TEST(Codes, GreedyCodeIsTheLexicode) {
  std::vector<std::pair<std::size_t, std::size_t>> cases = {{12, 2}, {12, 5}};
  for (std::size_t n = 1; n <= 10; ++n) {
    for (std::size_t d = 0; d <= n + 1; ++d) cases.emplace_back(n, d);
  }
  for (const auto& [n, d] : cases) {
    const auto code = greedy_code(n, d);
    const auto reference = reference_lexicode(n, d);
    ASSERT_EQ(code.size(), reference.size()) << "n=" << n << " d=" << d;
    for (std::size_t i = 0; i < code.size(); ++i) {
      ASSERT_EQ(code[i].to_string(), reference[i].to_string())
          << "n=" << n << " d=" << d << " word " << i;
    }
  }
  // The code sizes E2 (n = 18) and E12 (n = 20) print.
  for (const auto& [n, d, size] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {18, 2, 131072}, {20, 4, 16384}}) {
    const auto code = greedy_code(n, d);
    EXPECT_EQ(code.size(), size) << "n=" << n << " d=" << d;
    EXPECT_GE(static_cast<double>(code.size()), gilbert_varshamov_bound(n, d))
        << "n=" << n << " d=" << d;
  }
}

TEST(Codes, BinaryEntropy) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_NEAR(binary_entropy(0.11), 0.4999, 1e-3);
}

TEST(Codes, GapEqFoolingSetIsValid) {
  // Fooling set for delta-Eq built from a distance-(delta+1) code, checked
  // against the gap predicate "equal or distance > delta".
  const std::size_t n = 10, delta = 3;
  const auto code = greedy_code(n, delta + 1);
  const auto pairs = gap_eq_fooling_set(code);
  const auto gap_eq = [](const BitString& a, const BitString& b) {
    return a == b;  // 1-inputs of the promise problem
  };
  EXPECT_TRUE(is_one_fooling_set(gap_eq, pairs));
  EXPECT_GE(static_cast<double>(pairs.size()),
            gilbert_varshamov_bound(n, delta + 1) - 1e-9);
}

TEST(Codes, FoolingSetDetectsViolations) {
  // (x, y) pairs for Equality that are not a fooling set: duplicate rows.
  std::vector<FoolingPair> bad;
  bad.push_back({BitString::parse("1"), BitString::parse("1")});
  bad.push_back({BitString::parse("1"), BitString::parse("1")});
  EXPECT_FALSE(is_one_fooling_set(
      [](const BitString& a, const BitString& b) { return a == b; }, bad));
}

TEST(Degree, PaturiKnownValues) {
  // OR has a jump at k=0: Gamma = n-1, degree Theta(sqrt n).
  const auto orf = SymmetricFunction::or_n(64);
  EXPECT_EQ(paturi_gamma(orf), 63u);
  EXPECT_NEAR(approx_degree_estimate(orf), std::sqrt(64.0 * 2.0), 1e-9);
  // Majority jumps at the middle: Gamma small, degree Theta(n).
  const auto maj = SymmetricFunction::majority(64);
  EXPECT_LE(paturi_gamma(maj), 1u);
  EXPECT_GE(approx_degree_estimate(maj), 63.0);
  // Parity jumps everywhere: Gamma <= 1, degree Theta(n).
  EXPECT_LE(paturi_gamma(SymmetricFunction::parity(64)), 1u);
  // The IPmod3 outer function [sum mod 3 == 0]: Gamma = O(1) => Theta(n).
  const auto mod3 = SymmetricFunction::mod_counter(63, 3, 0);
  EXPECT_LE(paturi_gamma(mod3), 2u);
  EXPECT_GE(approx_degree_estimate(mod3), 60.0);
}

TEST(Degree, ConstantFunctionHasDegreeZero) {
  SymmetricFunction f;
  f.profile.assign(11, 1);
  EXPECT_DOUBLE_EQ(approx_degree_estimate(f), 0.0);
}

TEST(Lemma32, WinRateMatchesPrediction) {
  // A deliberately tiny protocol (2 + 2 charged bits) so the 2^-(c+d)
  // advantage is measurable by Monte Carlo.
  Rng rng(23);
  const auto protocol = make_stream_to_server_protocol(
      [](const BitString& a, const BitString& b) { return equality(a, b); },
      2);
  const auto x = BitString::parse("10");
  const auto est_eq =
      play_xor_game_from_server_protocol(protocol, x, x, true, 200000, rng);
  EXPECT_EQ(est_eq.charged_bits, 4);
  EXPECT_NEAR(est_eq.predicted, 0.5 + 0.5 / 16.0, 1e-12);
  EXPECT_NEAR(est_eq.win_rate, est_eq.predicted, 0.01);
  EXPECT_NEAR(est_eq.no_abort_rate, 1.0 / 16.0, 0.01);

  const auto y = BitString::parse("01");
  const auto est_ne =
      play_xor_game_from_server_protocol(protocol, x, y, false, 200000, rng);
  EXPECT_NEAR(est_ne.win_rate, est_ne.predicted, 0.01);
}

TEST(Lemma32, AdvantageShrinksWithCost) {
  // The no-abort rate - hence the bias advantage - decays as 2^-(c+d),
  // which is exactly why cheap server protocols for hard functions cannot
  // exist (Theorem 6.1).
  Rng rng(29);
  const auto protocol = make_stream_to_server_protocol(
      [](const BitString& a, const BitString& b) { return equality(a, b); },
      4);
  const auto x = BitString::parse("1010");
  const auto est =
      play_xor_game_from_server_protocol(protocol, x, x, true, 400000, rng);
  EXPECT_EQ(est.charged_bits, 8);
  EXPECT_NEAR(est.no_abort_rate, 1.0 / 256.0, 0.002);
}

}  // namespace
}  // namespace qdc::comm
