#include "quantum/state.hpp"

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

void StateVector::apply(const Gate1& g, int qubit) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_, "StateVector::apply: bad qubit");
  const std::size_t bit = std::size_t{1} << qubit;
  for_shards(amplitudes_.size() >> 1,
             [&](int, std::size_t begin, std::size_t end) {
               for (std::size_t k = begin; k < end; ++k) {
                 const std::size_t i0 = insert_zero_bit(k, qubit);
                 const std::size_t i1 = i0 | bit;
                 const Amplitude a0 = amplitudes_[i0];
                 const Amplitude a1 = amplitudes_[i1];
                 amplitudes_[i0] = g.u00 * a0 + g.u01 * a1;
                 amplitudes_[i1] = g.u10 * a0 + g.u11 * a1;
               }
             });
}

void StateVector::apply_controlled(const Gate1& g, int control, int target) {
  QDC_EXPECT(control >= 0 && control < qubit_count_ && target >= 0 &&
                 target < qubit_count_ && control != target,
             "StateVector::apply_controlled: bad qubits");
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const int lo = control < target ? control : target;
  const int hi = control < target ? target : control;
  // Pair k enumerates the dimension/4 basis indices with control = 1 and
  // target = 0: insert zeros at both qubit positions, then set control.
  for_shards(amplitudes_.size() >> 2,
             [&](int, std::size_t begin, std::size_t end) {
               for (std::size_t k = begin; k < end; ++k) {
                 const std::size_t i0 =
                     insert_zero_bit(insert_zero_bit(k, lo), hi) | cbit;
                 const std::size_t i1 = i0 | tbit;
                 const Amplitude a0 = amplitudes_[i0];
                 const Amplitude a1 = amplitudes_[i1];
                 amplitudes_[i0] = g.u00 * a0 + g.u01 * a1;
                 amplitudes_[i1] = g.u10 * a0 + g.u11 * a1;
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
