#include "quantum/state.hpp"

#include <array>
#include <cmath>
#include <string>

#include "util/expect.hpp"
#include "util/shard.hpp"

namespace qdc::quantum {

using detail::insert_zero_bit;

StateVector::StateVector(int qubit_count, util::ThreadPool* pool)
    : qubit_count_(qubit_count), pool_(pool) {
  QDC_EXPECT(qubit_count >= 1 && qubit_count <= kMaxQubits,
             "StateVector: qubit count must be in [1, kMaxQubits]");
  amplitudes_.assign(std::size_t{1} << qubit_count, Amplitude{0.0, 0.0});
  amplitudes_[0] = Amplitude{1.0, 0.0};
}

void StateVector::for_shards(
    std::size_t items,
    const std::function<void(int, std::size_t, std::size_t)>& body) const {
  util::run_sharded(pool_, util::ShardPlan::over(items), body);
}

int StateVector::shard_count_for(std::size_t items) const {
  return util::ShardPlan::over(items).shards;
}

Amplitude StateVector::amplitude(std::size_t basis) const {
  QDC_EXPECT(basis < amplitudes_.size(), "StateVector::amplitude: bad basis");
  return amplitudes_[basis];
}

namespace {

/// Two doubles in one vector register (SSE2 on x86-64, NEON on AArch64; a
/// target without one gets the same arithmetic on scalars).
using Lanes = double __attribute__((vector_size(16)));

/// A gate entry u split for u·a: re = (ur, ur), im = (-ui, ui).
struct LaneCoeff {
  Lanes re;
  Lanes im;
};

LaneCoeff split(Amplitude u) {
  return {Lanes{u.real(), u.real()}, Lanes{-u.imag(), u.imag()}};
}

/// u·a on a = (ar, ai): lane 0 is ur·ar + (-ui)·ai and lane 1 is
/// ur·ai + ui·ar, the two sums std::complex<double> multiplication forms
/// (negation is exact, so adding (-ui)·ai rounds like subtracting ui·ai).
Lanes times(const LaneCoeff& u, Lanes a) {
  const Lanes swapped{a[1], a[0]};
  return u.re * a + u.im * swapped;
}

/// Applies g to `count` consecutive amplitude pairs: the j-th couples the
/// j-th amplitude at a0 with the j-th at a1, each stored as its real and
/// imaginary double. Reads and writes go element by element through
/// double*, which [complex.numbers]/4 allows for a std::complex array, so
/// nothing is assumed about alignment. `g` is taken by value: the compiler
/// cannot rule out that the stores alias a referenced array, but it keeps
/// its own copy in registers.
void apply_run(std::array<LaneCoeff, 4> g, double* a0, double* a1,
               std::size_t count) {
  for (std::size_t j = 0; j < 2 * count; j += 2) {
    const Lanes x0{a0[j], a0[j + 1]};
    const Lanes x1{a1[j], a1[j + 1]};
    const Lanes y0 = times(g[0], x0) + times(g[1], x1);
    const Lanes y1 = times(g[2], x0) + times(g[3], x1);
    a0[j] = y0[0];
    a0[j + 1] = y0[1];
    a1[j] = y1[0];
    a1[j + 1] = y1[1];
  }
}

}  // namespace

void StateVector::apply(const Gate1& g, int qubit) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_, "StateVector::apply: bad qubit");
  apply_pairs(g, qubit, -1);
}

void StateVector::apply_controlled(const Gate1& g, int control, int target) {
  QDC_EXPECT(control >= 0 && control < qubit_count_ && target >= 0 &&
                 target < qubit_count_ && control != target,
             "StateVector::apply_controlled: bad qubits");
  apply_pairs(g, target, control);
}

void StateVector::apply_pairs(const Gate1& g, int target, int control) {
  const bool controlled = control >= 0;
  const int lo = controlled && control < target ? control : target;
  const int hi = controlled && control > target ? control : target;
  const std::size_t cbit = controlled ? std::size_t{1} << control : 0;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t run = std::size_t{1} << lo;
  const std::array<LaneCoeff, 4> lanes = {split(g.u00), split(g.u01),
                                          split(g.u10), split(g.u11)};
  double* amps = reinterpret_cast<double*>(amplitudes_.data());
  // Controlled: dimension/4 pairs with control = 1 and target = 0 (zeros
  // inserted at both positions, then control set); else dimension/2.
  for_shards(amplitudes_.size() >> (controlled ? 2 : 1),
             [&](int, std::size_t begin, std::size_t end) {
               for (std::size_t k = begin; k < end;) {
                 std::size_t i0 = insert_zero_bit(k, lo);
                 if (controlled) i0 = insert_zero_bit(i0, hi) | cbit;
                 const std::size_t left = run - (k & (run - 1));  // in k's run
                 const std::size_t count = left < end - k ? left : end - k;
                 apply_run(lanes, amps + 2 * i0, amps + 2 * (i0 | tbit),
                           count);
                 k += count;
               }
             });
}

void StateVector::cnot(int control, int target) {
  apply_controlled(Gate1{{0, 0}, {1, 0}, {1, 0}, {0, 0}}, control, target);
}

void StateVector::cz(int control, int target) {
  apply_controlled(Gate1{{1, 0}, {0, 0}, {0, 0}, {-1, 0}}, control, target);
}

void StateVector::swap(int a, int b) {
  QDC_EXPECT(a >= 0 && a < qubit_count_ && b >= 0 && b < qubit_count_,
             "StateVector::swap: bad qubits");
  if (a == b) return;  // a qubit trivially swaps with itself
  cnot(a, b);
  cnot(b, a);
  cnot(a, b);
}

void StateVector::reflect_about_uniform() {
  const std::size_t dim = amplitudes_.size();
  std::vector<Amplitude> partial(
      static_cast<std::size_t>(shard_count_for(dim)), Amplitude{0.0, 0.0});
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    Amplitude sum{0.0, 0.0};
    for (std::size_t i = begin; i < end; ++i) sum += amplitudes_[i];
    partial[static_cast<std::size_t>(s)] = sum;
  });
  Amplitude total{0.0, 0.0};
  for (const Amplitude& v : partial) total += v;
  // dim is a power of two, so 2 / dim is exact and so is the scaling.
  const Amplitude twice_mean = total * (2.0 / static_cast<double>(dim));
  for_shards(dim, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      amplitudes_[i] = twice_mean - amplitudes_[i];
    }
  });
}

double StateVector::probability_one(int qubit) const {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             "StateVector::probability_one: bad qubit");
  const std::size_t bit = std::size_t{1} << qubit;
  const std::size_t half = amplitudes_.size() >> 1;
  // Shard-indexed partial sums merged serially in shard order: bit-identical
  // for any thread count (and exactly the serial left-to-right sum when the
  // state is small enough for a single shard).
  std::vector<double> partial(
      static_cast<std::size_t>(shard_count_for(half)), 0.0);
  for_shards(half, [&](int s, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      sum += std::norm(amplitudes_[insert_zero_bit(k, qubit) | bit]);
    }
    partial[static_cast<std::size_t>(s)] = sum;
  });
  double p = 0.0;
  for (const double v : partial) p += v;
  return p;
}

bool StateVector::measure(int qubit, Rng& rng) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             "StateVector::measure: bad qubit");
  return collapse_qubit(qubit, uniform_real(rng));
}

bool StateVector::collapse_qubit(int qubit, double r) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             "StateVector::collapse_qubit: qubit out of range (qubit = " +
                 std::to_string(qubit) + ", qubit_count = " +
                 std::to_string(qubit_count_) + ")");
  QDC_EXPECT(r >= 0.0 && r < 1.0,
             "StateVector::collapse_qubit: uniform draw outside [0, 1) "
             "(r = " +
                 std::to_string(r) + ")");
  return collapse_qubit_unchecked(qubit, r);
}

bool StateVector::collapse_qubit_unchecked(int qubit, double r) {
  const double p1 = probability_one(qubit);
  const bool outcome = r < p1;
  const std::size_t bit = std::size_t{1} << qubit;
  const double keep_norm = std::sqrt(outcome ? p1 : 1.0 - p1);
  QDC_CHECK(keep_norm > 0.0,
            "StateVector::measure: zero-probability branch |" +
                std::string(outcome ? "1" : "0") + "> on qubit " +
                std::to_string(qubit));
  for_shards(amplitudes_.size(), [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const bool is_one = (i & bit) != 0;
      if (is_one == outcome) {
        amplitudes_[i] /= keep_norm;
      } else {
        amplitudes_[i] = Amplitude{0.0, 0.0};
      }
    }
  });
  return outcome;
}

std::size_t StateVector::measure_all(Rng& rng) {
  return collapse_all(uniform_real(rng));
}

std::size_t StateVector::collapse_all(double r) {
  QDC_EXPECT(r >= 0.0 && r < 1.0,
             "StateVector::collapse_all: uniform draw outside [0, 1) "
             "(r = " +
                 std::to_string(r) + ")");
  return collapse_all_unchecked(r);
}

std::size_t StateVector::collapse_all_unchecked(double r) {
  const std::size_t dim = amplitudes_.size();
  const int shards = shard_count_for(dim);
  // Per-shard measure mass and highest nonzero-probability index, tallied
  // into shard-indexed slots and consumed serially in shard order below.
  std::vector<double> mass(static_cast<std::size_t>(shards), 0.0);
  std::vector<std::size_t> top_nonzero(static_cast<std::size_t>(shards), dim);
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    std::size_t top = dim;
    for (std::size_t i = begin; i < end; ++i) {
      const double p = std::norm(amplitudes_[i]);
      sum += p;
      if (p > 0.0) top = i;
    }
    mass[static_cast<std::size_t>(s)] = sum;
    top_nonzero[static_cast<std::size_t>(s)] = top;
  });

  // Walk shard masses to find the shard the threshold lands in, then scan
  // amplitudes serially from there. Falling off the end of that shard
  // (rounding: the batched mass and the element-by-element subtraction
  // disagree by an ulp) just continues into the next one.
  std::size_t outcome = dim;
  int first = shards;
  for (int s = 0; s < shards; ++s) {
    if (r - mass[static_cast<std::size_t>(s)] <= 0.0) {
      first = s;
      break;
    }
    r -= mass[static_cast<std::size_t>(s)];
  }
  if (first < shards) {
    const util::ShardPlan plan = util::ShardPlan::over(dim);
    for (std::size_t i = plan.begin(first); i < dim; ++i) {
      r -= std::norm(amplitudes_[i]);
      if (r <= 0.0) {
        outcome = i;
        break;
      }
    }
  }
  if (outcome == dim) {
    // Rounding left r > 0 after the scan: collapse onto the highest-index
    // basis state that actually carries probability, never onto a
    // zero-amplitude one.
    for (int s = shards - 1; s >= 0 && outcome == dim; --s) {
      outcome = top_nonzero[static_cast<std::size_t>(s)];
    }
    QDC_CHECK(outcome != dim,
              "StateVector::measure_all: state carries no probability mass");
  }

  for_shards(dim, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      amplitudes_[i] = Amplitude{0.0, 0.0};
    }
  });
  amplitudes_[outcome] = Amplitude{1.0, 0.0};
  return outcome;
}

double StateVector::probability_of(std::size_t basis) const {
  QDC_EXPECT(basis < amplitudes_.size(),
             "StateVector::probability_of: basis index out of range "
             "(basis = " +
                 std::to_string(basis) + ", dimension = " +
                 std::to_string(amplitudes_.size()) + ")");
  return std::norm(amplitudes_[basis]);
}

double StateVector::norm_squared() const {
  const std::size_t dim = amplitudes_.size();
  std::vector<double> partial(
      static_cast<std::size_t>(shard_count_for(dim)), 0.0);
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += std::norm(amplitudes_[i]);
    }
    partial[static_cast<std::size_t>(s)] = sum;
  });
  double total = 0.0;
  for (const double v : partial) total += v;
  return total;
}

double StateVector::fidelity(const StateVector& other) const {
  QDC_EXPECT(qubit_count_ == other.qubit_count_,
             "StateVector::fidelity: qubit count mismatch (this = " +
                 std::to_string(qubit_count_) + ", other = " +
                 std::to_string(other.qubit_count_) + ")");
  const std::size_t dim = amplitudes_.size();
  std::vector<Amplitude> partial(
      static_cast<std::size_t>(shard_count_for(dim)), Amplitude{0.0, 0.0});
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    Amplitude sum{0.0, 0.0};
    for (std::size_t i = begin; i < end; ++i) {
      sum += std::conj(amplitudes_[i]) * other.amplitudes_[i];
    }
    partial[static_cast<std::size_t>(s)] = sum;
  });
  Amplitude inner{0.0, 0.0};
  for (const Amplitude& v : partial) inner += v;
  return std::norm(inner);
}

}  // namespace qdc::quantum
