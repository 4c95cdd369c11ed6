// Lemma 3.2 and Section 6: nonlocal-game strategies from server-model
// protocols.
//
//  * CHSH reference row: the exact classical (0.75) and Tsirelson (0.853)
//    win probabilities, plus statevector play.
//  * Transcript-guessing table: for stream protocols of increasing cost
//    c+d, the measured XOR-game win rate against the predicted
//    1/2 + 2^-(c+d) / 2 - the quantitative engine of Lemma 3.2: game bias
//    decays exponentially in protocol cost, so a cheap protocol for a
//    biased-hard function cannot exist.
#include <cstdio>

#include "comm/lemma32.hpp"
#include "comm/problems.hpp"
#include "comm/server_model.hpp"
#include "harness.hpp"
#include "nonlocal/xor_game.hpp"
#include "quantum/protocols.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(91);

  std::printf("=== Lemma 3.2 / Section 6: games from protocols ===\n\n");
  const auto chsh = nonlocal::XorGame::chsh();
  int wins = 0;
  const int rounds = 40000;
  for (int t = 0; t < rounds; ++t) {
    if (quantum::chsh_play_quantum(coin(rng), coin(rng), rng)) ++wins;
  }
  std::printf("CHSH: classical %.4f | Tsirelson %.4f | statevector play "
              "%.4f over %d rounds\n\n",
              nonlocal::bias_to_win_probability(
                  nonlocal::classical_bias_exact(chsh)),
              nonlocal::bias_to_win_probability(
                  nonlocal::quantum_bias_tsirelson(chsh, rng)),
              double(wins) / rounds, rounds);

  std::printf("transcript-guessing XOR strategies (Equality stream "
              "protocol; 400k trials per row):\n");
  std::printf("%12s %10s %12s %12s %14s\n", "input bits", "cost c+d",
              "win rate", "predicted", "no-abort rate");
  for (const std::size_t bits : {1, 2, 3, 4}) {
    const auto protocol = comm::make_stream_to_server_protocol(
        [](const BitString& a, const BitString& b) {
          return comm::equality(a, b);
        },
        bits);
    const auto x = BitString::random(bits, rng);
    const auto est = comm::play_xor_game_from_server_protocol(
        protocol, x, x, true, 400000, rng);
    std::printf("%12zu %10d %12.5f %12.5f %14.5f\n", bits, est.charged_bits,
                est.win_rate, est.predicted, est.no_abort_rate);
  }
  std::printf("\n(the advantage over 1/2 halves per protocol bit - "
              "4^-Q* in the paper's quantum accounting, where each qubit "
              "teleports into two classical bits)\n");

  std::printf("\nrandom XOR games: quantum vs classical bias (Tsirelson "
              "vectors vs exact enumeration):\n");
  std::printf("%6s %6s %12s %12s %10s\n", "|X|", "|Y|", "classical",
              "quantum", "ratio");
  for (int size = 2; size <= 4; ++size) {
    std::vector<std::vector<int>> f(static_cast<std::size_t>(size),
                                    std::vector<int>(static_cast<std::size_t>(size)));
    for (auto& row : f) {
      for (auto& v : row) v = coin(rng) ? 1 : 0;
    }
    const auto game = nonlocal::XorGame::uniform(f);
    const double c = nonlocal::classical_bias_exact(game);
    const double q = nonlocal::quantum_bias_tsirelson(game, rng);
    std::printf("%6d %6d %12.5f %12.5f %10.4f\n", size, size, c, q,
                c > 1e-12 ? q / c : 1.0);
  }
  std::printf("(ratios stay below Grothendieck's constant ~1.782)\n");

  return 0;
}
