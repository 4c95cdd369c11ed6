// statevector: quantum::StateVector at 22 qubits (64 MiB) with a 4-thread
// util::ThreadPool, in two parts:
//
//  * a seeded layered circuit through the public per-gate API: ry and rz
//    on every qubit, a cnot ladder, a cz ladder, an oracle_phase, then
//    norm_squared, probability_one and fidelity;
//  * grover_search with default arguments (no pool, fusion_window 0, the
//    way core/disjointness.cpp calls it) on 16-qubit registers with one
//    marked item each, four searches at once on a 4-worker
//    util::SweepRunner, one per worker, the way paper_grid's jobs call it.
//
// Each search is serial and L2-sized. The four run at once because on a
// shared virtual machine each core's speed changes on its own, by up to
// half and for seconds at a time, as other tenants' work comes and goes:
// one search at a time measures whichever core it landed on, while the
// mean of four concurrent ones covers all of them.
//
// Why: the paper's own registers are <= 12 qubits, so without this
// workload the statevector kernels go unmeasured. It covers their
// 4-thread, L3-sized use and their serial, L2-sized use, which is where
// "prove fusion or remove it" must win. congest, dist and service are
// bypassed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "bench.hpp"
#include "quantum/fusion.hpp"
#include "quantum/gates.hpp"
#include "quantum/grover.hpp"
#include "quantum/state.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using qdc::quantum::FusedCircuit;
using qdc::quantum::StateVector;

constexpr int kQubits = 22;
constexpr int kThreads = 4;
constexpr int kGroverQubits = 16;
constexpr int kGroverJobs = kThreads;  // one search per sweep worker
constexpr int kProbeQubits = 4;  // probability_one calls per pass
constexpr int kCircuitsPerGrover = 2;
/// Kernel calls of one circuit pass, each one full-state pass: ry and rz
/// per qubit, the cnot and cz ladders, the oracle, norm_squared, the
/// probability_one probes and fidelity.
constexpr int kCalls =
    2 * kQubits + 2 * (kQubits - 1) + 1 + 1 + kProbeQubits + 1;

/// The seeded circuit: per-qubit angles, the oracle's marking salt, and
/// which qubits the reductions probe.
struct Circuit {
  std::vector<double> ry;
  std::vector<double> rz;
  std::uint64_t oracle_salt = 0;
  std::vector<int> probes;  // kProbeQubits of them

  bool marked(std::size_t i) const {
    return (qdc::splitmix64(oracle_salt ^ i) & 7) == 0;
  }
};

Circuit make_circuit(std::uint64_t seed) {
  Circuit c;
  qdc::Rng rng(derive_seed(seed, 30));
  for (int q = 0; q < kQubits; ++q) {
    c.ry.push_back(2.0 * std::numbers::pi * qdc::uniform_real(rng));
    c.rz.push_back(2.0 * std::numbers::pi * qdc::uniform_real(rng));
  }
  c.oracle_salt = rng();
  for (int k = 0; k < kProbeQubits; ++k) {
    c.probes.push_back(static_cast<int>(qdc::uniform_int(rng, 0, kQubits - 1)));
  }
  return c;
}

/// Wall times of the kernel calls of the timed passes: one sample vector
/// per call position of a pass, so every call counts in the pass it makes.
class CallTimes {
 public:
  CallTimes() : samples_(kCalls) {}
  void start_pass() { next_ = 0; }
  void add(double seconds) { samples_.at(next_++).push_back(seconds); }
  /// One pass as the sum of the median of each call position. A burst
  /// from another tenant of a shared host hits a few samples of a
  /// position, and that position's median drops them.
  double typical_pass_s() const {
    double sum = 0.0;
    for (const std::vector<double>& v : samples_) sum += median(v);
    return sum;
  }

 private:
  std::vector<std::vector<double>> samples_;
  std::size_t next_ = 0;
};

/// Times one kernel call: a span for the traced run, and its wall time
/// added to `times` (null: not recorded) when the scope ends.
class CallTimer {
 public:
  CallTimer(const char* span_name, CallTimes* times)
      : span_(span_name), times_(times) {}
  ~CallTimer() {
    if (times_ != nullptr) times_->add(seconds_between(t0_, Clock::now()));
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  Span span_;
  CallTimes* times_;
  Clock::time_point t0_ = Clock::now();
};

/// The unitary part through the per-gate API.
void apply_gates(StateVector& s, const Circuit& c, CallTimes* times) {
  for (int q = 0; q < kQubits; ++q) {
    const CallTimer t("quantum.gate1", times);
    s.apply(qdc::quantum::ry(c.ry[static_cast<std::size_t>(q)]), q);
  }
  for (int q = 0; q < kQubits; ++q) {
    const CallTimer t("quantum.gate1", times);
    s.apply(qdc::quantum::rz(c.rz[static_cast<std::size_t>(q)]), q);
  }
  for (int q = 0; q + 1 < kQubits; ++q) {
    const CallTimer t("quantum.gate2", times);
    s.cnot(q, q + 1);
  }
  for (int q = kQubits - 1; q > 0; --q) {
    const CallTimer t("quantum.gate2", times);
    s.cz(q, q - 1);
  }
  const CallTimer t("quantum.oracle", times);
  s.oracle_phase([&c](std::size_t i) { return c.marked(i); });
}

/// The same unitary part, recorded for FusedCircuit::run.
FusedCircuit fused_circuit(const Circuit& c) {
  FusedCircuit f(kQubits);
  for (int q = 0; q < kQubits; ++q) {
    f.gate(qdc::quantum::ry(c.ry[static_cast<std::size_t>(q)]), q);
  }
  for (int q = 0; q < kQubits; ++q) {
    f.gate(qdc::quantum::rz(c.rz[static_cast<std::size_t>(q)]), q);
  }
  for (int q = 0; q + 1 < kQubits; ++q) f.cnot(q, q + 1);
  for (int q = kQubits - 1; q > 0; --q) f.cz(q, q - 1);
  f.oracle([&c](std::size_t i) { return c.marked(i); });
  f.seal();
  return f;
}

/// The reductions of one pass; the folded value keeps them observable.
double reductions(const StateVector& s, const StateVector& ref,
                  const Circuit& c, CallTimes* times) {
  double acc = 0.0;
  {
    const CallTimer t("quantum.reduce", times);
    acc += s.norm_squared();
  }
  for (const int q : c.probes) {
    const CallTimer t("quantum.reduce", times);
    acc += s.probability_one(q);
  }
  const CallTimer t("quantum.reduce", times);
  return acc + s.fidelity(ref);
}

double circuit_pass(StateVector& s, const StateVector& ref, const Circuit& c,
                    long request, CallTimes* times) {
  Span span("quantum.circuit", request);
  if (times != nullptr) times->start_pass();
  apply_gates(s, c, times);
  return reductions(s, ref, c, times);
}

std::uint64_t amplitude_checksum(const StateVector& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const qdc::quantum::Amplitude& a : s.amplitudes()) {
    double parts[2] = {a.real(), a.imag()};
    std::uint64_t bits[2];
    std::memcpy(bits, parts, sizeof bits);
    h = qdc::splitmix64(h ^ bits[0]);
    h = qdc::splitmix64(h ^ bits[1]);
  }
  return h;
}

/// The searches of one batch: job i looks for targets[i].
struct Grover {
  std::vector<std::size_t> targets;
  std::vector<std::uint64_t> rng_seeds;
};

Grover make_grover(std::uint64_t seed) {
  Grover g;
  qdc::Rng rng(derive_seed(seed, 31));
  for (int i = 0; i < kGroverJobs; ++i) {
    g.targets.push_back(static_cast<std::size_t>(
        qdc::uniform_int(rng, 0, (std::int64_t{1} << kGroverQubits) - 1)));
    g.rng_seeds.push_back(rng());
  }
  return g;
}

/// One batch: the kGroverJobs searches at once on `runner`, each timed on
/// its own worker. Returns the mean time of one search in the batch.
double grover_batch(qdc::util::SweepRunner& runner, const Grover& g,
                    Report& report, int* iterations, long request) {
  Span batch_span("quantum.grover_batch", request);
  const int parent = batch_span.id();
  std::vector<qdc::quantum::GroverResult> results(kGroverJobs);
  std::vector<double> seconds(kGroverJobs);
  runner.run(kGroverJobs, [&](const qdc::util::SweepJob& job) {
    const auto i = static_cast<std::size_t>(job.index);
    Span span("quantum.grover", request, parent);
    qdc::Rng rng(g.rng_seeds[i]);
    const std::size_t target = g.targets[i];
    const Clock::time_point t0 = Clock::now();
    results[i] = qdc::quantum::grover_search(
        kGroverQubits, [target](std::size_t x) { return x == target; }, rng);
    seconds[i] = seconds_between(t0, Clock::now());
  });
  double sum = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    report.checks.op(results[i].is_marked && results[i].found == g.targets[i],
                     "grover_search returned an unmarked item");
    sum += seconds[i];
  }
  *iterations = results.front().iterations;
  return sum / kGroverJobs;
}

/// 4-thread copy over an array the size of the state: the cache/memory
/// bandwidth this host gives the statevector kernels, in GB/s (read +
/// write bytes).
double copy_gb_per_s(qdc::util::ThreadPool& pool, std::size_t bytes) {
  std::vector<unsigned char> src(bytes, 1);
  std::vector<unsigned char> dst(bytes, 0);
  const std::size_t chunk = bytes / kThreads;
  std::vector<double> rates;
  for (int rep = 0; rep < 8; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pool.run(kThreads, [&](int shard) {
      const std::size_t off = static_cast<std::size_t>(shard) * chunk;
      std::memcpy(dst.data() + off, src.data() + off, chunk);
    });
    rates.push_back(2.0 * static_cast<double>(bytes) / 1e9 /
                    seconds_between(t0, Clock::now()));
    // Feed each copy's output into the next source, so no copy is dead.
    const auto r = static_cast<std::size_t>(rep);
    src[r] = dst[bytes - 1 - r];
  }
  return median(rates);
}

struct Pass {
  long circuits = 0;
  CallTimes calls;
  std::vector<double> grover_s;  // per batch: mean time of one search
  int grover_iterations = 0;
};

/// One timed pass of `seconds`: two circuit passes per Grover batch,
/// interleaved, so a slow spell of the host falls on both parts alike.
Pass measure(StateVector& s, const StateVector& ref, const Circuit& c,
             qdc::util::SweepRunner& runner, const Grover& g, double seconds,
             long* request, Report& report) {
  Pass pass;
  double fold = 0.0;
  repeat_for(seconds, 3, [&] {
    for (int k = 0; k < kCircuitsPerGrover; ++k) {
      fold += circuit_pass(s, ref, c, (*request)++, &pass.calls);
      ++pass.circuits;
    }
    pass.grover_s.push_back(grover_batch(runner, g, report,
                                         &pass.grover_iterations,
                                         (*request)++));
  });
  report.checks.ok_ops(pass.circuits);
  report.checks.op(std::isfinite(fold) &&
                       std::abs(s.norm_squared() - 1.0) < 1e-12,
                   "state norm drifted over the timed circuit passes");
  return pass;
}

void add_e2e(std::vector<Metric>& out, const Pass& p) {
  out.push_back({"circuit_s", p.calls.typical_pass_s(), "s", p.circuits,
                 "one pass of the 22-qubit circuit, 4 threads: sum over its " +
                     std::to_string(kCalls) + " kernel calls of each "
                     "call's median"});
  out.push_back({"grover_s", median(p.grover_s), "s",
                 static_cast<long>(p.grover_s.size()) * kGroverJobs,
                 "one serial 16-qubit grover_search, " +
                     std::to_string(kGroverJobs) + " at once on " +
                     std::to_string(kGroverJobs) + " sweep workers: "
                     "median over batches of the batch's mean"});
}

}  // namespace

Report run_statevector(const Options& options) {
  Report report;
  report.primary = "circuit_s";
  report.secondary = "grover_s";
  const Circuit circuit = make_circuit(options.seed);
  const Grover grover = make_grover(options.seed);

  std::unique_ptr<qdc::util::ThreadPool> pool;
  std::unique_ptr<qdc::util::SweepRunner> runner;
  std::unique_ptr<StateVector> state;
  std::unique_ptr<StateVector> ref;
  long request = 0;
  Pass last;
  const std::size_t first_span = run_phases(
      options, report,
      {.setup =
           [&] {
             state.reset();
             ref.reset();
             pool.reset();
             runner.reset();
             const Clock::time_point t0 = Clock::now();
             pool = std::make_unique<qdc::util::ThreadPool>(kThreads);
             runner = std::make_unique<qdc::util::SweepRunner>(
                 qdc::util::SweepOptions{.threads = kGroverJobs});
             state = std::make_unique<StateVector>(kQubits, pool.get());
             ref = std::make_unique<StateVector>(kQubits, pool.get());
             for (int q = 0; q < kQubits; ++q) {
               ref->apply(qdc::quantum::hadamard(), q);
             }
             circuit_pass(*state, *ref, circuit, request++, nullptr);
             int iterations = 0;
             grover_batch(*runner, grover, report, &iterations, request++);
             return seconds_between(t0, Clock::now());
           },
       .setup_note = "pool + sweep runner + 2 states (first touch of "
                     "128 MiB) + one warm-up circuit pass and Grover batch",
       .pass =
           [&](std::vector<Metric>& out) {
             last = measure(*state, *ref, circuit, *runner, grover,
                            options.seconds, &request, report);
             add_e2e(out, last);
           }});

  const std::size_t state_bytes =
      state->dimension() * sizeof(qdc::quantum::Amplitude);
  const auto over_cache = [](std::size_t bytes, int level) {
    return format_double(
        static_cast<double>(bytes) /
        static_cast<double>(std::max<std::uint64_t>(1, cache_bytes(level))));
  };
  report.fact("statevector.state_bytes", std::to_string(state_bytes));
  report.fact("statevector.state_over_l3", over_cache(state_bytes, 3));
  report.fact("statevector.grover_state_over_l2",
              over_cache(std::size_t{16} << kGroverQubits, 2));

  if (options.trace) {
    const auto spans = Tracer::global().layer_times(first_span);
    const auto mean_us = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_us / static_cast<double>(it->second.count);
    };
    const auto count = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0L : it->second.count;
    };
    const double circuit_s = last.calls.typical_pass_s();
    const double bytes_gb =
        kCalls * 2.0 * 16.0 * static_cast<double>(std::size_t{1} << kQubits) /
        1e9;
    const double gb_per_s = bytes_gb / circuit_s;
    const double copy = copy_gb_per_s(*pool, state_bytes);

    // The same circuit serially, and through the fused path.
    state->set_thread_pool(nullptr);
    const Clock::time_point s0 = Clock::now();
    circuit_pass(*state, *ref, circuit, request++, nullptr);
    const double serial = seconds_between(s0, Clock::now());
    state->set_thread_pool(pool.get());
    const FusedCircuit fused = fused_circuit(circuit);
    const Clock::time_point f0 = Clock::now();
    {
      Span span("quantum.fused_circuit", request++);
      fused.run(*state);
      reductions(*state, *ref, circuit, nullptr);
    }
    const double fused_s = seconds_between(f0, Clock::now());

    report.layer("quantum.gate1_us", mean_us("quantum.gate1"), "us",
                 count("quantum.gate1"), "mean per ry/rz call -> circuit_s");
    report.layer("quantum.gate2_us", mean_us("quantum.gate2"), "us",
                 count("quantum.gate2"), "mean per cnot/cz call -> circuit_s");
    report.layer("quantum.oracle_us", mean_us("quantum.oracle"), "us",
                 count("quantum.oracle"), "mean per oracle_phase -> circuit_s");
    report.layer("quantum.reduce_us", mean_us("quantum.reduce"), "us",
                 count("quantum.reduce"),
                 "mean per norm_squared/probability_one/fidelity -> circuit_s");
    report.layer("quantum.passes", kCalls, "count", 1,
                 "full-state passes per circuit pass -> circuit_s");
    report.layer("quantum.bytes_gb", bytes_gb, "GB", 1,
                 "computed: passes x 2 x 16 B x 2^22 -> circuit_s");
    report.layer("quantum.gb_per_s", gb_per_s, "GB/s", last.circuits,
                 "computed bytes / circuit_s -> circuit_s");
    report.layer("mem.copy_gb_per_s", copy, "GB/s", 8,
                 "4-thread memcpy over a state-sized array, same run");
    report.layer("quantum.bw_frac", gb_per_s / copy, "ratio", 1,
                 "gb_per_s / copy_gb_per_s -> circuit_s");
    report.layer("quantum.serial_circuit_s", serial, "s", 1,
                 "same circuit, no pool -> circuit_s");
    report.layer("quantum.scaling_eff", serial / (kThreads * circuit_s),
                 "ratio", 1, "serial / (4 x circuit_s) -> circuit_s");
    report.layer("quantum.fused_circuit_s", fused_s, "s", 1,
                 "same circuit via FusedCircuit::run -> circuit_s, only if "
                 "fusion became the default path");
    report.layer("quantum.grover_iterations", last.grover_iterations,
                 "count", 1, "-> grover_s");
    report.layer("quantum.grover_iter_us",
                 1e6 * median(last.grover_s) / last.grover_iterations,
                 "us", static_cast<long>(last.grover_s.size()) * kGroverJobs,
                 "-> grover_s");
  }

  // Correctness, outside every timed section: the per-gate unitary part
  // must equal FusedCircuit::run bit for bit, and keep the norm.
  state.reset();
  ref.reset();
  {
    Span span("bench.check");
    StateVector a(kQubits, pool.get());
    apply_gates(a, circuit, nullptr);
    const double norm = a.norm_squared();
    const std::uint64_t per_gate = amplitude_checksum(a);
    StateVector b(kQubits, pool.get());
    fused_circuit(circuit).run(b);
    report.checks.op(per_gate == amplitude_checksum(b),
                     "per-gate circuit differs from FusedCircuit::run");
    report.checks.op(std::abs(norm - 1.0) < 1e-12,
                     "circuit norm off by more than 1e-12: " +
                         format_double(norm));
  }
  return report;
}

}  // namespace perfbench
