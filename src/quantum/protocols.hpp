// Small quantum protocols the paper's arguments rely on:
//  * EPR pairs (footnote 2: shared entanglement subsumes shared randomness);
//  * teleportation (Section 6 / Appendix B.2: "using teleportation it can be
//    assumed that Carol and David send 2T classical bits instead of T
//    qubits");
//  * superdense coding (the converse direction: 2 classical bits per qubit,
//    the reason the factor in Lemma 3.2 is 4^{-2c});
//  * CHSH measurement strategies (the canonical XOR game of Section 6).
#pragma once

#include "quantum/state.hpp"
#include "util/rng.hpp"

namespace qdc::quantum {

/// Entangles qubits a and b of `state` into an EPR pair
/// (|00> + |11>)/sqrt(2), assuming both are currently |0>.
void make_epr(StateVector& state, int a, int b);

/// Teleports the state of qubit `source` onto qubit `target` using the EPR
/// pair (epr_a, epr_b), where epr_a is on the sender's side and epr_b =
/// target is on the receiver's side. Returns the two classical bits the
/// sender transmits. After the call, `target` carries the original `source`
/// state (source collapses).
struct TeleportBits {
  bool x = false;  ///< from the Bell measurement (X correction)
  bool z = false;  ///< from the Bell measurement (Z correction)
};
TeleportBits teleport(StateVector& state, int source, int epr_a, int epr_b,
                      Rng& rng);

/// Superdense coding: encodes two classical bits into one qubit of an EPR
/// pair and decodes them on the other side. Returns the decoded bits
/// (always equal to the inputs; exercised as a protocol test). `pool`
/// (non-owning; null = serial) is forwarded to the internal StateVector —
/// outcomes are bit-identical for every pool.
std::pair<bool, bool> superdense_roundtrip(bool b0, bool b1, Rng& rng,
                                           util::ThreadPool* pool = nullptr);

/// One CHSH game round played with the optimal entangled strategy
/// (measurement angles 0, pi/2 for Alice and pi/4, -pi/4 for Bob).
/// Returns true if the players win (a xor b == x and y).
bool chsh_play_quantum(bool x, bool y, Rng& rng);

/// One CHSH round with the best classical strategy (always output 0):
/// wins unless x = y = 1.
bool chsh_play_classical(bool x, bool y);

}  // namespace qdc::quantum
