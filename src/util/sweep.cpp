#include "util/sweep.hpp"

#include "util/expect.hpp"

namespace qdc::util {

SweepRunner::SweepRunner(const SweepOptions& options) : options_(options) {
  QDC_EXPECT(options.threads >= 0,
             "SweepRunner: threads must be >= 0 (0 = hardware)");
  const int resolved = options.threads == 0 ? ThreadPool::hardware_threads()
                                            : options.threads;
  pool_ = std::make_unique<ThreadPool>(resolved);
}

std::uint64_t SweepRunner::job_seed(std::uint64_t master_seed, int index) {
  // splitmix64 adds one more golden-ratio increment itself, so job i's
  // seed is the master seed advanced by i + 1 increments: job 0 stays
  // distinct from the raw master seed.
  const auto steps = static_cast<std::uint64_t>(index);
  return splitmix64(master_seed + steps * 0x9e3779b97f4a7c15ULL);
}

std::vector<std::exception_ptr> SweepRunner::try_run(
    int job_count, const std::function<void(const SweepJob&)>& job) {
  QDC_EXPECT(job_count >= 0, "SweepRunner: negative job count");
  QDC_EXPECT(static_cast<bool>(job), "SweepRunner: null job");
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(job_count));
  if (job_count == 0) {
    return errors;
  }
  const std::uint64_t master = options_.master_seed;
  pool_->run(job_count, [&](int index) {
    // Each job index is claimed by exactly one pool thread, so the
    // index-owned error slot needs no lock; consuming slots in index
    // order *is* the deterministic merge.
    try {
      job(SweepJob{index, job_seed(master, index)});
    } catch (...) {
      errors[static_cast<std::size_t>(index)] = std::current_exception();
    }
  });
  return errors;
}

void SweepRunner::run(int job_count,
                      const std::function<void(const SweepJob&)>& job) {
  for (const std::exception_ptr& error : try_run(job_count, job)) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace qdc::util
