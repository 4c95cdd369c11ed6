// Figure 1: the proof-structure pipeline, run end to end with concrete
// numbers for each arrow:
//
//   nonlocal games  ->  Server model  ->  distributed networks
//
// 1. XOR games: exact classical and Tsirelson biases (CHSH and the AND
//    game underlying IPmod3's hardness).
// 2. Lemma 3.2: a server-model protocol of cost c+d bits yields an
//    XOR-game strategy with bias advantage 2^-(c+d); measured vs predicted.
// 3. Section 7 gadget: IPmod3 instances compiled to Hamiltonian-cycle
//    instances (correctness over a random batch).
// 4. Theorem 3.5: the three-party harness on N(Gamma, L) with measured
//    charged cost per round vs the 6kB bound, and the implied Theorem 3.6
//    lower bound at the Section 9.1 parameter choice.
#include <cstdio>
#include <memory>

#include "comm/lemma32.hpp"
#include "comm/problems.hpp"
#include "comm/server_model.hpp"
#include "congest/network.hpp"
#include "core/bounds.hpp"
#include "core/lb_topology.hpp"
#include "core/simulation.hpp"
#include "dist/tree.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "harness.hpp"
#include "nonlocal/xor_game.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(17);

  std::printf("=== Figure 1 pipeline ===\n\n");
  std::printf("[1] Nonlocal games (Section 6 / B.1)\n");
  const auto chsh = nonlocal::XorGame::chsh();
  std::printf("    CHSH: classical bias %.4f, quantum bias %.4f "
              "(Tsirelson 1/sqrt(2) = 0.7071)\n",
              nonlocal::classical_bias_exact(chsh),
              nonlocal::quantum_bias_tsirelson(chsh, rng));

  std::printf("\n[2] Server model via Lemma 3.2 (transcript guessing)\n");
  for (const std::size_t bits : {2, 3, 4}) {
    const auto protocol = comm::make_stream_to_server_protocol(
        [](const BitString& a, const BitString& b) {
          return comm::ip_mod3_is_zero(a, b);
        },
        bits);
    const auto x = BitString::random(bits, rng);
    const auto y = BitString::random(bits, rng);
    const auto est = comm::play_xor_game_from_server_protocol(
        protocol, x, y, comm::ip_mod3_is_zero(x, y), 200000, rng);
    std::printf("    IPmod3_%zu stream protocol: cost %d bits -> XOR-game "
                "win rate %.4f (predicted %.4f)\n",
                bits, est.charged_bits, est.win_rate, est.predicted);
  }
  std::printf("    => a o(n)-bit server protocol for IPmod3 would beat the "
              "nonlocal-game bound; none exists (Theorem 6.1)\n");

  std::printf("\n[3] Gadget reduction IPmod3 -> Ham (Section 7)\n");
  int correct = 0;
  const int batch = 300;
  for (int t = 0; t < batch; ++t) {
    const auto inst = comm::random_ip_mod3_promise(4, rng);
    if (gadgets::ip_mod3_nonzero_via_ham(inst.x, inst.y) ==
        !comm::ip_mod3_is_zero(inst.x, inst.y)) {
      ++correct;
    }
  }
  std::printf("    %d/%d random promise instances decided correctly through "
              "the gadget graph\n",
              correct, batch);

  std::printf("\n[4] Quantum Simulation Theorem (Theorem 3.5) on N(Gamma, "
              "L)\n");
  const auto lb = std::make_shared<const core::LbTopologyView>(4, 129);
  congest::Network net(lb, congest::NetworkConfig{.bandwidth = 8});
  const auto tree =
      dist::build_bfs_tree(net, lb->path_node(0, 1), {.record_trace = true});
  const auto acc = core::account_three_party_cost(*lb, net);
  std::printf("    BFS on N(4, 129): %d rounds; max charged %lld "
              "fields/round <= 6kB = %lld; highway-only: %s\n",
              acc.rounds, static_cast<long long>(acc.max_charged_per_round),
              static_cast<long long>(acc.per_round_bound),
              acc.only_highway_edges_charged ? "yes" : "NO");
  const int n = 1 << 16;
  const double bits = 16.0;
  const auto params = core::theorem35_parameters(n, bits);
  std::printf("    => at n=%d, B=%.0f bits: choose L=%d, Gamma=%d; "
              "Theorem 3.6 gives Omega(%.0f) rounds for Ham/ST "
              "verification\n",
              n, bits, params.length, params.gamma,
              core::verification_lower_bound(n, bits));

  return correct == batch ? 0 : 1;
}
