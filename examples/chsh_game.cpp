// CHSH, the canonical XOR game of Section 6: classical vs entangled play,
// both by exact computation (enumeration / Tsirelson vectors) and by
// playing actual rounds on the statevector simulator.
//
//   $ ./chsh_game [rounds]          (rounds in 1..1000000)
#include <cstdio>

#include "args.hpp"
#include "nonlocal/xor_game.hpp"
#include "quantum/protocols.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  const examples::Args args(argc, argv, 1, "chsh_game [rounds: 1..1000000]");
  const int rounds = static_cast<int>(args.integer(1, 1, 1000000, 100000));
  Rng rng(42);

  const auto game = nonlocal::XorGame::chsh();
  const double classical = nonlocal::classical_bias_exact(game);
  const double quantum = nonlocal::quantum_bias_tsirelson(game, rng);
  std::printf("CHSH biases (exact): classical %.6f -> win %.6f\n", classical,
              nonlocal::bias_to_win_probability(classical));
  std::printf("                     quantum   %.6f -> win %.6f "
              "(Tsirelson bound 1/sqrt(2))\n",
              quantum, nonlocal::bias_to_win_probability(quantum));

  int q_wins = 0, c_wins = 0;
  for (int t = 0; t < rounds; ++t) {
    const bool x = coin(rng);
    const bool y = coin(rng);
    if (quantum::chsh_play_quantum(x, y, rng)) ++q_wins;
    if (quantum::chsh_play_classical(x, y)) ++c_wins;
  }
  std::printf("played %d rounds on the statevector: quantum %.4f, "
              "classical %.4f\n",
              rounds, double(q_wins) / rounds, double(c_wins) / rounds);
  return 0;
}
