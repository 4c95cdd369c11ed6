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

void SweepRunner::run(int job_count,
                      const std::function<void(const SweepJob&)>& job) {
  QDC_EXPECT(static_cast<bool>(job), "SweepRunner: null job");
  const std::uint64_t master = options_.master_seed;
  // The pool runs every index once and rethrows the lowest-indexed
  // exception after all of them finished, which is run()'s contract.
  pool_->run(job_count, [&](int index) {
    job(SweepJob{index, job_seed(master, index)});
  });
}

}  // namespace qdc::util
