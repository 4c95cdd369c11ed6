// SweepDeterminism: the batched-sweep layer must produce identical
// results, ordering and error behaviour for every worker count — 1 worker
// and 4 workers are the pinned pair. Jobs here do real per-job RNG work
// and (in one suite) call Network::run, so the tests cover the exact
// composition the figure benches rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/stats.hpp"
#include "graph/generators.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace qdc::util {
namespace {

std::vector<std::uint64_t> run_hash_sweep(int workers, int jobs) {
  SweepRunner runner(SweepOptions{.threads = workers});
  return runner.map<std::uint64_t>(jobs, [](const SweepJob& job) {
    Rng rng = job.make_rng();
    std::uint64_t acc = 0;
    for (int i = 0; i <= job.index % 7; ++i) {
      acc = acc * 1000003u + rng();
    }
    return acc;
  });
}

TEST(SweepDeterminism, OneVsFourWorkersIdenticalResultsAndOrder) {
  const std::vector<std::uint64_t> serial = run_hash_sweep(1, 37);
  const std::vector<std::uint64_t> parallel = run_hash_sweep(4, 37);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
}

TEST(SweepDeterminism, TwoWorkersMatchToo) {
  EXPECT_EQ(run_hash_sweep(1, 23), run_hash_sweep(2, 23));
}

TEST(SweepDeterminism, JobSeedIsPureAndWorkerIndependent) {
  const std::uint64_t master = SweepOptions{}.master_seed;
  SweepRunner one(SweepOptions{.threads = 1});
  SweepRunner four(SweepOptions{.threads = 4});
  std::vector<std::uint64_t> seeds_one(8);
  std::vector<std::uint64_t> seeds_four(8);
  one.run(8, [&](const SweepJob& j) {
    seeds_one[static_cast<std::size_t>(j.index)] = j.seed;
  });
  four.run(8, [&](const SweepJob& j) {
    seeds_four[static_cast<std::size_t>(j.index)] = j.seed;
  });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(seeds_one[static_cast<std::size_t>(i)],
              SweepRunner::job_seed(master, i));
    EXPECT_EQ(seeds_four[static_cast<std::size_t>(i)],
              SweepRunner::job_seed(master, i));
  }
}

TEST(SweepDeterminism, JobSeedsAreDistinctAndSpread) {
  // Neighbouring jobs must not get correlated streams: the splitmix64
  // finalizer should make all of the first 64 seeds pairwise distinct.
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 64; ++i) {
    seeds.push_back(SweepRunner::job_seed(0x9d1c03a5e2f84b67ULL, i));
  }
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]) << "jobs " << a << " and " << b;
    }
  }
  // Different master seeds give different job-0 streams.
  EXPECT_NE(SweepRunner::job_seed(1, 0), SweepRunner::job_seed(2, 0));
}

TEST(SweepDeterminism, ThrowingJobPropagatesLowestIndexAfterFullSweep) {
  for (const int workers : {1, 4}) {
    SweepRunner runner(SweepOptions{.threads = workers});
    std::atomic<int> completed{0};
    try {
      runner.run(16, [&](const SweepJob& job) {
        if (job.index == 11 || job.index == 3) {
          throw std::runtime_error("job " + std::to_string(job.index));
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      });
      FAIL() << "expected the sweep to rethrow (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      // Lowest-indexed exception wins, regardless of execution order.
      EXPECT_STREQ("job 3", e.what()) << "workers=" << workers;
    }
    // Every non-throwing job still ran: one failure never cancels the rest.
    EXPECT_EQ(14, completed.load()) << "workers=" << workers;
  }
}

TEST(SweepDeterminism, EmptySweepIsANoOp) {
  SweepRunner runner(SweepOptions{.threads = 4});
  int calls = 0;
  runner.run(0, [&](const SweepJob&) { ++calls; });
  EXPECT_EQ(0, calls);
}

TEST(SweepDeterminism, ZeroThreadsResolvesToHardware) {
  SweepRunner runner(SweepOptions{.threads = 0});
  EXPECT_GE(runner.worker_count(), 1);
  // Hardware-resolved pools produce the same results as serial ones.
  EXPECT_EQ(run_hash_sweep(1, 11),
            runner.map<std::uint64_t>(11, [](const SweepJob& job) {
              Rng rng = job.make_rng();
              std::uint64_t acc = 0;
              for (int i = 0; i <= job.index % 7; ++i) {
                acc = acc * 1000003u + rng();
              }
              return acc;
            }));
}

TEST(SweepDeterminism, RejectsInvalidArguments) {
  EXPECT_THROW(SweepRunner(SweepOptions{.threads = -1}), ContractError);
  SweepRunner runner;
  EXPECT_THROW(runner.run(-1, [](const SweepJob&) {}), ContractError);
  EXPECT_THROW(runner.run(1, {}), ContractError);
}

TEST(SweepDeterminism, PinnedJobSeedConstants) {
  // Frozen values: experiment write-ups cite job seeds, so the derivation
  // must never drift silently. Recompute these if the scheme ever changes
  // on purpose (that is a breaking change to every recorded experiment).
  EXPECT_EQ(0xe220a8397b1dcdafULL, SweepRunner::job_seed(0, 0));
  EXPECT_EQ(0x6e789e6aa1b965f4ULL, SweepRunner::job_seed(0, 1));
  EXPECT_EQ(0x9a6ff4b9ada57affULL,
            SweepRunner::job_seed(0x9d1c03a5e2f84b67ULL, 0));
}

/// Minimal flooding program for the composition test below.
class FloodBriefly : public congest::NodeProgram {
 public:
  void on_round(congest::NodeContext& ctx,
                const std::vector<congest::Incoming>&) override {
    if (ctx.round() >= 3) {
      ctx.set_output(ctx.id());
      ctx.halt();
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, congest::Payload{ctx.id(), ctx.round()});
    }
  }
};

// The composition the figure benches use: each job runs a full audited
// Network::run (inner threads = 1) on a per-job random graph. RunStats
// must be identical between 1 and 4 sweep workers.
TEST(SweepDeterminism, NetworkRunsInsideSweepAreBitIdentical) {
  auto run_stats = [](int workers) {
    SweepRunner runner(SweepOptions{.threads = workers});
    return runner.map<congest::RunStats>(6, [](const SweepJob& job) {
      Rng rng = job.make_rng();
      const int n = 24 + 4 * (job.index % 3);
      congest::Network net(graph::random_connected(n, 0.2, rng),
                           congest::NetworkConfig{.bandwidth = 4});
      net.install([](congest::NodeId, const congest::NodeContext&) {
        return std::make_unique<FloodBriefly>();
      });
      return net.run({.max_rounds = 8});
    });
  };
  EXPECT_EQ(run_stats(1), run_stats(4));
}

}  // namespace
}  // namespace qdc::util
