// Determinism suite for the parallel statevector kernels, mirroring
// EngineDeterminism: amplitudes, reductions, measurement outcomes and the
// quantum bench's payload checksums must be bit-identical for a null pool
// and for pools of 1, 2 and 4 threads. The probe circuit is wide enough
// (16 qubits = 65536 amplitudes) that every kernel — gate pairs,
// controlled pairs, oracle sweeps, reductions and collapses — actually
// splits into multiple shards; any cross-shard ordering leak fails loudly
// as a bitwise mismatch instead of averaging out.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "quantum/gates.hpp"
#include "quantum/grover.hpp"
#include "quantum/protocols.hpp"
#include "quantum/state.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qdc::quantum {
namespace {

constexpr int kProbeQubits = 16;

/// A gate soup hitting every kernel family: single-qubit pairs, controlled
/// pairs, an oracle sweep and a swap. Deterministic, no randomness.
void build_probe_circuit(StateVector& s) {
  const int n = s.qubit_count();
  for (int q = 0; q < n; ++q) s.apply(hadamard(), q);
  for (int q = 0; q < n; ++q) s.apply(ry(0.1 * q + 0.3), q);
  for (int q = 0; q + 1 < n; ++q) s.cnot(q, q + 1);
  for (int q = 0; q < n; q += 3) s.apply(rz(0.2 * q + 0.05), q);
  s.oracle_phase([](std::size_t i) { return (i * 2654435761ULL) % 7 == 3; });
  for (int q = 1; q < n; q += 2) s.apply_controlled(phase_t(), q - 1, q);
  s.cz(0, n - 1);
  s.swap(0, n - 1);
}

/// Bitwise equality of two statevectors (exact, not approximate).
bool bit_identical(const StateVector& a, const StateVector& b) {
  return a.dimension() == b.dimension() &&
         std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.dimension() * sizeof(Amplitude)) == 0;
}

/// Folds the raw amplitude bits into one word through splitmix64 — the
/// payload checksum bench_quantum_scaling embeds in BENCH_quantum.json, so
/// this suite pins the determinism of the bench's reported payloads too.
/// splitmix64 carries every input bit into every output bit; a fold by odd
/// multipliers alone would carry a bit only upward, so sign flips on an
/// even number of doubles would cancel.
std::uint64_t amplitude_checksum(const StateVector& s) {
  std::uint64_t acc = 0x243f6a8885a308d3ULL;
  for (const Amplitude& a : s.amplitudes()) {
    for (const double part : {a.real(), a.imag()}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &part, sizeof(bits));
      acc = splitmix64(acc ^ bits);
    }
  }
  return acc;
}

/// The pool sizes every test compares: null (serial), and 1/2/4 threads.
std::vector<std::unique_ptr<util::ThreadPool>> make_pools() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const int t : {1, 2, 4}) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }
  return pools;
}

TEST(QuantumDeterminism, GateKernelsBitIdenticalAcrossThreadCounts) {
  StateVector reference(kProbeQubits);
  build_probe_circuit(reference);
  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    StateVector s(kProbeQubits, pools[p].get());
    build_probe_circuit(s);
    EXPECT_TRUE(bit_identical(s, reference)) << "pool " << p;
    EXPECT_EQ(amplitude_checksum(s), amplitude_checksum(reference))
        << "pool " << p;
  }
}

TEST(QuantumDeterminism, ReductionsBitIdenticalAcrossThreadCounts) {
  StateVector reference(kProbeQubits);
  build_probe_circuit(reference);
  StateVector other_ref(kProbeQubits);
  for (int q = 0; q < kProbeQubits; ++q) other_ref.apply(hadamard(), q);

  const double norm_ref = reference.norm_squared();
  const double fid_ref = reference.fidelity(other_ref);
  std::vector<double> p1_ref;
  for (int q = 0; q < kProbeQubits; ++q) {
    p1_ref.push_back(reference.probability_one(q));
  }

  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    StateVector s(kProbeQubits, pools[p].get());
    build_probe_circuit(s);
    StateVector other(kProbeQubits, pools[p].get());
    for (int q = 0; q < kProbeQubits; ++q) other.apply(hadamard(), q);
    // EXPECT_EQ, not EXPECT_NEAR: the contract is bitwise equality.
    EXPECT_EQ(s.norm_squared(), norm_ref) << "pool " << p;
    EXPECT_EQ(s.fidelity(other), fid_ref) << "pool " << p;
    for (int q = 0; q < kProbeQubits; ++q) {
      EXPECT_EQ(s.probability_one(q), p1_ref[static_cast<std::size_t>(q)])
          << "pool " << p << " qubit " << q;
    }
  }
}

TEST(QuantumDeterminism, MeasurementOutcomesBitIdenticalAcrossThreadCounts) {
  const auto run = [](util::ThreadPool* pool, std::vector<std::size_t>* out,
                      StateVector* final_state) {
    Rng rng(12345);
    StateVector s(kProbeQubits, pool);
    build_probe_circuit(s);
    for (int q = 0; q < 6; ++q) {
      out->push_back(s.measure(q, rng) ? 1u : 0u);
    }
    out->push_back(s.measure_all(rng));
    *final_state = s;
  };
  std::vector<std::size_t> ref_outcomes;
  StateVector ref_state(1);
  run(nullptr, &ref_outcomes, &ref_state);
  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    std::vector<std::size_t> outcomes;
    StateVector state(1);
    run(pools[p].get(), &outcomes, &state);
    EXPECT_EQ(outcomes, ref_outcomes) << "pool " << p;
    EXPECT_TRUE(bit_identical(state, ref_state)) << "pool " << p;
  }
}

TEST(QuantumDeterminism, GroverBitIdenticalAcrossThreadCounts) {
  // 13 qubits: 8192 items, so the marked-count and success-probability
  // scans in grover_search shard too (not just the gate kernels).
  const auto marked = [](std::size_t i) { return i % 97 == 5; };
  const auto run = [&](util::ThreadPool* pool) {
    Rng rng(777);
    return grover_search(13, marked, rng, /*iterations=*/-1, pool);
  };
  const GroverResult reference = run(nullptr);
  EXPECT_GT(reference.success_probability, 0.5);
  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    const GroverResult r = run(pools[p].get());
    EXPECT_EQ(r.found, reference.found) << "pool " << p;
    EXPECT_EQ(r.is_marked, reference.is_marked) << "pool " << p;
    EXPECT_EQ(r.iterations, reference.iterations) << "pool " << p;
    EXPECT_EQ(r.success_probability, reference.success_probability)
        << "pool " << p;
  }
}

TEST(QuantumDeterminism, TeleportationBitIdenticalAtOneAndFourThreads) {
  // A 14-qubit host state (multi-shard collapses) with the EPR pair on
  // qubits (1, 2); everything else carries a non-trivial superposition.
  const auto run = [](util::ThreadPool* pool, TeleportBits* bits,
                      StateVector* final_state) {
    Rng rng(4242);
    StateVector s(14, pool);
    s.apply(ry(0.37), 0);
    s.apply(rz(1.13), 0);
    for (int q = 3; q < 14; ++q) s.apply(hadamard(), q);
    for (int q = 3; q + 1 < 14; ++q) s.cnot(q, q + 1);
    make_epr(s, 1, 2);
    *bits = teleport(s, /*source=*/0, /*epr_a=*/1, /*epr_b=*/2, rng);
    *final_state = s;
  };
  TeleportBits ref_bits;
  StateVector ref_state(1);
  run(nullptr, &ref_bits, &ref_state);
  for (const int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    TeleportBits bits;
    StateVector state(1);
    run(&pool, &bits, &state);
    EXPECT_EQ(bits.x, ref_bits.x) << "threads " << threads;
    EXPECT_EQ(bits.z, ref_bits.z) << "threads " << threads;
    EXPECT_TRUE(bit_identical(state, ref_state)) << "threads " << threads;
  }
}

TEST(QuantumDeterminism, SuperdenseRoundTripBitIdenticalAtOneAndFourThreads) {
  for (const int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    Rng rng_pooled(999);
    Rng rng_serial(999);
    for (const bool b0 : {false, true}) {
      for (const bool b1 : {false, true}) {
        const auto pooled = superdense_roundtrip(b0, b1, rng_pooled, &pool);
        const auto serial = superdense_roundtrip(b0, b1, rng_serial);
        EXPECT_EQ(pooled, serial) << "threads " << threads;
        EXPECT_EQ(pooled.first, b0);
        EXPECT_EQ(pooled.second, b1);
      }
    }
  }
}

TEST(QuantumDeterminism, RepeatedPooledRunsAreIdentical) {
  // The pool is reused across circuits; no state may leak between runs.
  util::ThreadPool pool(4);
  StateVector first(kProbeQubits, &pool);
  build_probe_circuit(first);
  StateVector second(kProbeQubits, &pool);
  build_probe_circuit(second);
  EXPECT_TRUE(bit_identical(first, second));
}

// ---------------------------------------------------------------------------
// A seeded random circuit: every gate kind and the oracle in a random
// order on a multi-shard state, so coverage does not rest on the fixed
// probe circuit's gate order alone.

/// One operation of the seeded random circuit below.
struct RandomGate {
  int kind;            // 0 H, 1 ry, 2 rz, 3 cnot, 4 controlled-T, 5 cz,
                       // 6 oracle
  int a;               // target (single) / control (two-qubit)
  int b;               // second qubit for two-qubit kinds
  double theta;        // rotation angle for ry/rz
  std::uint64_t seed;  // oracle predicate seed
};

constexpr int kOracleKind = 6;

/// The oracle kind's predicate: marks about one basis index in eight.
bool oracle_marks(std::uint64_t seed, std::size_t i) {
  return (splitmix64(seed ^ i) & 7U) == 0;
}

std::vector<RandomGate> random_gates(int n_qubits, int count, Rng& rng) {
  std::vector<RandomGate> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    RandomGate op;
    op.kind = static_cast<int>(uniform_int(rng, 0, kOracleKind));
    op.a = static_cast<int>(uniform_int(rng, 0, n_qubits - 1));
    op.b = static_cast<int>(uniform_int(rng, 0, n_qubits - 2));
    if (op.b >= op.a) ++op.b;  // distinct without rejection sampling
    op.theta = 3.0 * uniform_real(rng) - 1.5;
    op.seed = rng();
    ops.push_back(op);
  }
  return ops;
}

void apply_direct(StateVector& s, const RandomGate& op) {
  switch (op.kind) {
    case 0: s.apply(hadamard(), op.a); break;
    case 1: s.apply(ry(op.theta), op.a); break;
    case 2: s.apply(rz(op.theta), op.a); break;
    case 3: s.cnot(op.a, op.b); break;
    case 4: s.apply_controlled(phase_t(), op.a, op.b); break;
    case 5: s.cz(op.a, op.b); break;
    default:
      s.oracle_phase([seed = op.seed](std::size_t i) {
        return oracle_marks(seed, i);
      });
      break;
  }
}

/// The seeded random circuit both tests below run: 200 operations on 13
/// qubits.
constexpr int kRandomQubits = 13;

std::vector<RandomGate> seeded_random_circuit() {
  Rng gen(20260809);
  return random_gates(kRandomQubits, /*count=*/200, gen);
}

TEST(QuantumDeterminism, RandomCircuitBitIdenticalAcrossPools) {
  // A random 200-operation, 13-qubit circuit of gates and phase oracles:
  // the serial run is the reference, and the same sequence applied per
  // gate must reproduce it bit for bit on pools of 1, 2 and 4 threads.
  const std::vector<RandomGate> ops = seeded_random_circuit();
  int oracles = 0;
  for (const RandomGate& op : ops) {
    if (op.kind == kOracleKind) ++oracles;
  }
  ASSERT_GT(oracles, 0);

  StateVector reference(kRandomQubits);
  for (const RandomGate& op : ops) apply_direct(reference, op);

  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    StateVector s(kRandomQubits, pools[p].get());
    for (const RandomGate& op : ops) apply_direct(s, op);
    EXPECT_TRUE(bit_identical(s, reference)) << "pool " << p;
    EXPECT_EQ(amplitude_checksum(s), amplitude_checksum(reference))
        << "pool " << p;
  }
}

TEST(QuantumDeterminism, KernelNumericsPinned) {
  // Literal checksums of three multi-shard states, computed with the
  // per-pair std::complex<double> gate loops: the gate kernels must keep
  // every amplitude bit of those products, at every pool size. The third
  // state runs a gate whose eight real and imaginary parts are all
  // nonzero, uncontrolled and controlled, with the control above and
  // below the target and pair runs of 1 and 32 amplitudes.
  //
  // g is rz(0.7)·ry(1.1)·T evaluated in double arithmetic, written out bit
  // for bit: GCC folds a product of constant complex numbers with a single
  // rounding, so multiplying in the test would pin whatever it folded.
  const Gate1 g{{0x1.9a0779605224bp-1, -0x1.2b583cf8e3391p-2},
                {-0x1.e54bb78f3f326p-2, -0x1.c37dacea9bf64p-3},
                {0x1.f6c83612d1cf0p-2, 0x1.6f0f3fdc900bbp-3},
                {0x1.7033401039d06p-2, 0x1.8bc4cce692145p-1}};
  const std::vector<RandomGate> ops = seeded_random_circuit();
  const auto pools = make_pools();
  for (std::size_t p = 0; p < pools.size(); ++p) {
    util::ThreadPool* pool = pools[p].get();
    StateVector probe(kProbeQubits, pool);
    build_probe_circuit(probe);
    EXPECT_EQ(amplitude_checksum(probe), 0x2faac56ffb96861eULL)
        << "pool " << p;

    StateVector random(kRandomQubits, pool);
    for (const RandomGate& op : ops) apply_direct(random, op);
    EXPECT_EQ(amplitude_checksum(random), 0xf5621da0690ef466ULL)
        << "pool " << p;

    constexpr int kDenseQubits = 14;
    StateVector dense(kDenseQubits, pool);
    for (int q = 0; q < kDenseQubits; ++q) dense.apply(hadamard(), q);
    for (int q = 0; q < kDenseQubits; ++q) dense.apply(g, q);
    for (const auto& [c, t] : {std::pair{0, 13}, std::pair{13, 0},
                               std::pair{5, 6}, std::pair{6, 5}}) {
      dense.apply_controlled(g, c, t);
    }
    EXPECT_EQ(amplitude_checksum(dense), 0x54100e594efa2129ULL)
        << "pool " << p;
  }
}

}  // namespace
}  // namespace qdc::quantum
