// Quantum-kernel scaling harness: measures the sharded StateVector kernels
// (quantum/state.cpp) across thread counts and emits BENCH_quantum.json —
// the quantum layer's recorded perf trajectory, the counterpart of
// BENCH_engine.json for the round engine.
//
//   ./bench_quantum_scaling [--smoke] [--gate] [--out PATH]
//
// --smoke shrinks every workload to seconds-scale for CI; --gate runs the
// single large gate-kernel configuration the CI speedup regression gate
// reads (threads {1, 4} — see the GATES table of
// tools/check_bench_schema.py); --out defaults to BENCH_quantum.json in
// the working directory.
//
// Two axes, mirroring bench_engine_scaling:
//
//  * "cases": one StateVector with an injected util::ThreadPool, timed at
//    increasing thread counts on three kernel families — the gate kernels
//    (apply/apply_controlled/oracle_phase), the reductions
//    (norm_squared/probability_one/fidelity) and a full Grover search
//    (oracle + diffusion + measure_all).
//  * "sweep": many independent serial Grover jobs batched through
//    bench::SweepHarness at increasing worker counts — the
//    one-sweep-level-of-parallelism pattern of docs/EXPERIMENT_PIPELINE.md
//    (a fresh harness per worker count; its JSON timing report stays off,
//    this bench writes its own).
//
// Every case carries a payload checksum (a fold over the raw amplitude or
// outcome bits). The bench recomputes it at every thread/worker count and
// exits 1 on any mismatch, so a determinism regression can never produce a
// plausible-looking report; the QuantumDeterminism suite pins the same
// property in ctest.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "quantum/gates.hpp"
#include "quantum/grover.hpp"
#include "quantum/state.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/thread_pool.hpp"

namespace {

using qdc::quantum::Amplitude;
using qdc::quantum::StateVector;

std::uint64_t fold_double(std::uint64_t acc, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return qdc::splitmix64(acc ^ bits);
}

/// The payload checksum: a fold over the raw amplitude bits, identical to
/// the one QuantumDeterminism computes — bitwise, so an ulp of cross-shard
/// reordering flips it.
std::uint64_t state_checksum(const StateVector& s) {
  std::uint64_t acc = 0x243f6a8885a308d3ULL;
  for (const Amplitude& a : s.amplitudes()) {
    acc = fold_double(acc, a.real());
    acc = fold_double(acc, a.imag());
  }
  return acc;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(digits[(v >> shift) & 0xf]);
  }
  return out;
}

struct ThreadResult {
  int threads = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  double speedup = 1.0;
};

struct CaseResult {
  std::string name;
  int qubits = 0;
  std::int64_t ops = 0;
  std::uint64_t checksum = 0;
  std::vector<ThreadResult> results;
};

struct WorkerResult {
  int workers = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double speedup = 1.0;
};

struct SweepResult {
  int jobs = 0;
  int job_qubits = 0;
  std::uint64_t checksum = 0;
  std::vector<WorkerResult> results;
};

struct Workload {
  std::uint64_t checksum = 0;
  std::int64_t ops = 0;
};

/// The gate-kernel workload: `layers` sweeps of single-qubit and
/// controlled pairs plus an oracle pass over a `qubits`-wide state.
Workload run_gates(int qubits, int layers, qdc::util::ThreadPool* pool) {
  StateVector s(qubits, pool);
  Workload w;
  for (int layer = 0; layer < layers; ++layer) {
    w.ops += 3 * qubits + (qubits - 1) + qubits / 2 + 1;
    for (int q = 0; q < qubits; ++q) s.apply(qdc::quantum::hadamard(), q);
    for (int q = 0; q < qubits; ++q) {
      s.apply(qdc::quantum::ry(0.1 * q + 0.01 * layer + 0.3), q);
    }
    for (int q = 0; q + 1 < qubits; ++q) s.cnot(q, q + 1);
    for (int q = 1; q < qubits; q += 2) {
      s.apply_controlled(qdc::quantum::phase_t(), q - 1, q);
    }
    s.oracle_phase(
        [](std::size_t i) { return (i * 2654435761ULL) % 11 == 7; });
  }
  w.checksum = state_checksum(s);
  return w;
}

/// The reduction workload: repeated norm / per-qubit probability /
/// fidelity scans over a fixed superposition.
Workload run_reduce(int qubits, int reps, qdc::util::ThreadPool* pool) {
  StateVector s(qubits, pool);
  StateVector other(qubits, pool);
  for (int q = 0; q < qubits; ++q) {
    s.apply(qdc::quantum::ry(0.2 * q + 0.4), q);
    other.apply(qdc::quantum::hadamard(), q);
  }
  Workload w;
  std::uint64_t acc = 0x6a09e667f3bcc909ULL;
  for (int rep = 0; rep < reps; ++rep) {
    acc = fold_double(acc, s.norm_squared());
    for (int q = 0; q < qubits; ++q) {
      acc = fold_double(acc, s.probability_one(q));
    }
    acc = fold_double(acc, s.fidelity(other));
    w.ops += qubits + 2;
  }
  w.checksum = acc;
  return w;
}

/// The full-search workload: one fixed-seed Grover run, oracle to collapse.
Workload run_grover(int qubits, qdc::util::ThreadPool* pool) {
  qdc::Rng rng(20140721);
  const auto r = qdc::quantum::grover_search(
      qubits, [](std::size_t i) { return i % 257 == 3; }, rng,
      /*iterations=*/-1, pool);
  Workload w;
  w.ops = r.iterations;
  std::uint64_t acc = qdc::splitmix64(static_cast<std::uint64_t>(r.found));
  acc = fold_double(acc, r.success_probability);
  w.checksum = qdc::splitmix64(acc ^ static_cast<std::uint64_t>(r.is_marked));
  return w;
}

CaseResult run_case(const std::string& name, int qubits, int reps,
                    const std::vector<int>& thread_counts,
                    const std::function<Workload(qdc::util::ThreadPool*)>&
                        workload) {
  CaseResult result;
  result.name = name;
  result.qubits = qubits;
  bool first = true;
  for (const int threads : thread_counts) {
    qdc::util::ThreadPool pool(threads);
    // Best-of-reps: the workload is deterministic, so repeated runs only
    // differ by scheduler noise and the minimum is the honest estimate on
    // busy shared runners.
    double seconds = 0.0;
    Workload w;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      w = workload(&pool);
      const auto stop = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(stop - start).count();
      if (rep == 0 || s < seconds) {
        seconds = s;
      }
      if (first) {
        result.ops = w.ops;
        result.checksum = w.checksum;
        first = false;
      } else if (w.checksum != result.checksum) {
        std::cerr << "quantum_scaling: case " << name
                  << " checksum at threads=" << threads
                  << " diverges from the 1-thread payload\n";
        std::exit(1);
      }
    }
    ThreadResult tr;
    tr.threads = threads;
    tr.seconds = seconds;
    tr.ops_per_sec =
        tr.seconds > 0.0 ? static_cast<double>(w.ops) / tr.seconds : 0.0;
    result.results.push_back(tr);
  }
  const double base = result.results.front().ops_per_sec;
  for (ThreadResult& tr : result.results) {
    tr.speedup = base > 0.0 ? tr.ops_per_sec / base : 1.0;
  }
  return result;
}

/// The sweep axis: `jobs` independent serial Grover searches batched
/// through a SweepHarness per worker count. Job outcomes land in
/// job-indexed slots; their fold must match at every worker count.
SweepResult run_sweep_section(int jobs, int job_qubits,
                              const std::vector<int>& workers) {
  SweepResult result;
  result.jobs = jobs;
  result.job_qubits = job_qubits;
  bool first = true;
  for (const int w : workers) {
    qdc::bench::SweepHarness harness(
        "bench_quantum_scaling",
        qdc::bench::HarnessOptions{.sweep_threads = w, .out = ""});
    std::vector<std::uint64_t> found(static_cast<std::size_t>(jobs), 0);
    const auto start = std::chrono::steady_clock::now();
    harness.run_section(
        "grover_sweep", jobs, [&](const qdc::util::SweepJob& job) {
          qdc::Rng rng = job.make_rng();
          const std::uint64_t stride = 131 + (job.seed % 97);
          const auto r = qdc::quantum::grover_search(
              job_qubits,
              [stride](std::size_t i) { return i % stride == 5; }, rng);
          found[static_cast<std::size_t>(job.index)] =
              static_cast<std::uint64_t>(r.found) ^
              (static_cast<std::uint64_t>(r.iterations) << 32);
        });
    const auto stop = std::chrono::steady_clock::now();
    std::uint64_t acc = 0x243f6a8885a308d3ULL;
    for (const std::uint64_t f : found) acc = qdc::splitmix64(acc ^ f);
    if (first) {
      result.checksum = acc;
      first = false;
    } else if (acc != result.checksum) {
      std::cerr << "quantum_scaling: sweep checksum at workers=" << w
                << " diverges from the 1-worker payload\n";
      std::exit(1);
    }
    WorkerResult wr;
    wr.workers = w;
    wr.seconds = std::chrono::duration<double>(stop - start).count();
    wr.jobs_per_sec =
        wr.seconds > 0.0 ? static_cast<double>(jobs) / wr.seconds : 0.0;
    result.results.push_back(wr);
  }
  const double base = result.results.front().jobs_per_sec;
  for (WorkerResult& wr : result.results) {
    wr.speedup = base > 0.0 ? wr.jobs_per_sec / base : 1.0;
  }
  return result;
}

void write_json(const std::string& path, const std::vector<CaseResult>& cases,
                const SweepResult& sweep, bool smoke,
                const std::string& mode) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "quantum_scaling: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n";
  out << "  \"bench\": \"quantum_scaling\",\n";
  out << "  \"schema_version\": 4,\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"hardware_threads\": "
      << qdc::util::ThreadPool::hardware_threads() << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CaseResult& cr = cases[c];
    out << "    {\n";
    out << "      \"name\": \"" << cr.name << "\",\n";
    out << "      \"qubits\": " << cr.qubits << ",\n";
    out << "      \"ops\": " << cr.ops << ",\n";
    out << "      \"checksum\": \"" << hex64(cr.checksum) << "\",\n";
    out << "      \"results\": [\n";
    for (std::size_t r = 0; r < cr.results.size(); ++r) {
      const ThreadResult& tr = cr.results[r];
      out << "        {\"threads\": " << tr.threads
          << ", \"seconds\": " << tr.seconds
          << ", \"ops_per_sec\": " << tr.ops_per_sec
          << ", \"speedup\": " << tr.speedup << "}"
          << (r + 1 < cr.results.size() ? "," : "") << "\n";
    }
    out << "      ]\n";
    out << "    }" << (c + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"sweep\": {\n";
  out << "    \"jobs\": " << sweep.jobs << ",\n";
  out << "    \"job_qubits\": " << sweep.job_qubits << ",\n";
  out << "    \"checksum\": \"" << hex64(sweep.checksum) << "\",\n";
  out << "    \"results\": [\n";
  for (std::size_t r = 0; r < sweep.results.size(); ++r) {
    const WorkerResult& wr = sweep.results[r];
    out << "      {\"workers\": " << wr.workers
        << ", \"seconds\": " << wr.seconds
        << ", \"jobs_per_sec\": " << wr.jobs_per_sec
        << ", \"speedup\": " << wr.speedup << "}"
        << (r + 1 < sweep.results.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  std::string out_path = "BENCH_quantum.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr
          << "usage: bench_quantum_scaling [--smoke] [--gate] [--out PATH]\n";
      return 1;
    }
  }
  if (smoke && gate) {
    std::cerr << "quantum_scaling: --smoke and --gate are exclusive\n";
    return 1;
  }
  const std::string mode = gate ? "gate" : smoke ? "smoke" : "full";

  // gate: one large gate-kernel case, threads {1, 4} — big enough that
  // per-shard work dominates pool scheduling, small enough for a PR job.
  const int gate_qubits = gate ? 21 : smoke ? 16 : 22;
  const int layers = gate ? 3 : smoke ? 2 : 2;
  const int reduce_qubits = smoke ? 14 : 22;
  const int reduce_reps = smoke ? 2 : 8;
  const int grover_qubits = smoke ? 10 : 16;
  const int reps = smoke ? 2 : 3;
  const std::vector<int> thread_counts =
      gate ? std::vector<int>{1, 4}
           : smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::vector<CaseResult> cases;
  cases.push_back(run_case("gates", gate_qubits, reps, thread_counts,
                           [&](qdc::util::ThreadPool* pool) {
                             return run_gates(gate_qubits, layers, pool);
                           }));
  if (!gate) {
    cases.push_back(run_case("reduce", reduce_qubits, reps, thread_counts,
                             [&](qdc::util::ThreadPool* pool) {
                               return run_reduce(reduce_qubits, reduce_reps,
                                                 pool);
                             }));
    cases.push_back(run_case("grover", grover_qubits, reps, thread_counts,
                             [&](qdc::util::ThreadPool* pool) {
                               return run_grover(grover_qubits, pool);
                             }));
  }

  const int sweep_jobs = gate ? 8 : smoke ? 4 : 16;
  const int sweep_qubits = gate ? 10 : smoke ? 9 : 11;
  const SweepResult sweep =
      run_sweep_section(sweep_jobs, sweep_qubits, thread_counts);

  write_json(out_path, cases, sweep, smoke, mode);
  for (const CaseResult& cr : cases) {
    std::cout << cr.name << " (qubits=" << cr.qubits
              << ", ops=" << cr.ops << ")\n";
    for (const ThreadResult& tr : cr.results) {
      std::cout << "  threads=" << tr.threads
                << "  ops/sec=" << tr.ops_per_sec
                << "  speedup=" << tr.speedup << "\n";
    }
  }
  std::cout << "sweep (" << sweep.jobs << " jobs, qubits="
            << sweep.job_qubits << ")\n";
  for (const WorkerResult& wr : sweep.results) {
    std::cout << "  workers=" << wr.workers
              << "  jobs/sec=" << wr.jobs_per_sec
              << "  speedup=" << wr.speedup << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
