// Deterministic batched sweeps over the engine-agnostic thread pool.
//
// The figure benches (and any future grid experiment) consist of dozens of
// *independent* jobs — one (n, W, alpha) point, one (Gamma, L) row — each
// of which may itself call Network::run. SweepRunner executes such a job
// vector on a util::ThreadPool with three guarantees:
//
//  * Determinism. Jobs are identified by their index alone. Every per-job
//    random stream is derived from a fixed master seed plus the job index
//    (SweepRunner::job_seed, a splitmix64 finalizer), never from which
//    worker ran the job or when. Callers write results into job-indexed
//    slots and consume them in job-index order, so sweep output is
//    bit-identical for 1, 2 or N workers.
//
//  * Exception capture. A throwing job never tears down the sweep: every
//    job runs exactly once, and run() rethrows the lowest-indexed job's
//    exception after the whole sweep has drained (util::ThreadPool's
//    contract) — the same exception surfaces for every worker count.
//
//  * Bounded nesting. The sweep pool is the *outer* level of parallelism.
//    Jobs that call Network::run should keep RunOptions::threads = 1 (the
//    default): sweep-level parallelism scales with the number of grid
//    points, which is almost always larger and better balanced than the
//    per-round node shards the inner engine would split — and running both
//    levels wide oversubscribes the machine. See docs/EXPERIMENT_PIPELINE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qdc::util {

/// Options for a SweepRunner; value-semantics, safe to pass around.
struct SweepOptions {
  /// Workers executing jobs. 1 = serial (default); 0 = all hardware
  /// threads. Results and error reporting are identical for every value.
  int threads = 1;

  /// Master seed from which every per-job seed is derived. The default is
  /// an arbitrary odd constant; benches that need their own stream space
  /// pass an explicit seed.
  std::uint64_t master_seed = 0x9d1c03a5e2f84b67ULL;
};

/// Identity of one sweep job, handed to the job callable. `seed` is
/// job_seed(master_seed, index); make_rng() is the conventional way to get
/// the job's private random stream.
struct SweepJob {
  int index = 0;
  std::uint64_t seed = 0;

  Rng make_rng() const { return Rng(seed); }
};

/// Runs vectors of independent jobs over a private ThreadPool. One runner
/// may execute many sweeps; the pool is reused. Not reentrant: one
/// run()/map() at a time per runner.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& options = {});

  /// Workers that execute jobs (>= 1; 0 in options resolves to hardware).
  int worker_count() const { return pool_->thread_count(); }

  std::uint64_t master_seed() const { return options_.master_seed; }

  /// The per-job seed derivation: a splitmix64 finalizer over the master
  /// seed advanced by (index + 1) golden-ratio increments. Pure function;
  /// documented (and pinned by SweepDeterminism) so experiment write-ups
  /// can cite how job i's stream was produced.
  static std::uint64_t job_seed(std::uint64_t master_seed, int index);

  /// Executes job(SweepJob{i, seed_i}) for i in [0, job_count), each
  /// exactly once, spread over the pool. Jobs must only write state they
  /// own (typically a slot indexed by job.index). After every job has
  /// finished, rethrows the lowest-indexed captured exception, if any.
  void run(int job_count, const std::function<void(const SweepJob&)>& job);

  /// Typed convenience: collects each job's return value into a vector in
  /// job-index order. Result must be default-constructible.
  template <typename Result>
  std::vector<Result> map(
      int job_count, const std::function<Result(const SweepJob&)>& job) {
    std::vector<Result> results(static_cast<std::size_t>(job_count));
    run(job_count, [&](const SweepJob& j) {
      results[static_cast<std::size_t>(j.index)] = job(j);
    });
    return results;
  }

 private:
  SweepOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace qdc::util
