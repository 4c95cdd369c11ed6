// Job-queue unit tests: FIFO admission, bounded backpressure, the
// cancel-only-while-queued rule, tick-driven queue-wait expiry, and the
// wakeup guarantees the server's shutdown paths rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "service/job_queue.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "service/wire.hpp"

namespace qdc::service {
namespace {

JobSpec small_spec(std::uint32_t nodes = 8) {
  JobSpec spec;
  spec.nodes = nodes;
  return spec;
}

ResultBytes some_bytes() {
  return std::make_shared<const std::vector<std::uint8_t>>(4, 0x5A);
}

TEST(ServiceQueue, FifoIdsAndDepth) {
  JobQueue queue(4, nullptr);
  const std::uint64_t a = queue.submit(small_spec(8), 1, 0);
  const std::uint64_t b = queue.submit(small_spec(9), 2, 0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(queue.depth(), 2);
  EXPECT_EQ(queue.in_flight(), 0);

  const std::vector<std::uint64_t> batch = queue.pop_batch(8);
  EXPECT_EQ(batch, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.in_flight(), 2);
  EXPECT_EQ(queue.status(a)->state, JobState::Running);
}

TEST(ServiceQueue, BoundedBackpressure) {
  JobQueue queue(2, nullptr);
  EXPECT_NE(queue.submit(small_spec(), 1, 0), 0u);
  EXPECT_NE(queue.submit(small_spec(), 2, 0), 0u);
  EXPECT_EQ(queue.submit(small_spec(), 3, 0), 0u);  // full: rejected
  EXPECT_EQ(queue.counters().rejected_full, 1u);

  // Draining one job frees one admission slot.
  const std::vector<std::uint64_t> batch = queue.pop_batch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_NE(queue.submit(small_spec(), 3, 0), 0u);
}

TEST(ServiceQueue, CancelFreesAdmissionSlot) {
  JobQueue queue(2, nullptr);
  const std::uint64_t a = queue.submit(small_spec(), 1, 0);
  const std::uint64_t b = queue.submit(small_spec(), 2, 0);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(queue.cancel(b), JobState::Cancelled);
  EXPECT_EQ(queue.depth(), 1);

  // The cancelled job's slot is free before any dispatcher runs.
  const std::uint64_t c = queue.submit(small_spec(), 3, 0);
  EXPECT_NE(c, 0u);
  EXPECT_EQ(queue.counters().rejected_full, 0u);
  EXPECT_EQ(queue.depth(), 2);
  EXPECT_EQ(queue.pop_batch(4), (std::vector<std::uint64_t>{a, c}));
}

TEST(ServiceQueue, PopBatchRespectsMaxJobs) {
  JobQueue queue(8, nullptr);
  for (int i = 0; i < 5; ++i) queue.submit(small_spec(), 1, 0);
  EXPECT_EQ(queue.pop_batch(2).size(), 2u);
  EXPECT_EQ(queue.pop_batch(2).size(), 2u);
  EXPECT_EQ(queue.pop_batch(2).size(), 1u);
}

TEST(ServiceQueue, CancelOnlyWhileQueued) {
  JobQueue queue(4, nullptr);
  const std::uint64_t queued = queue.submit(small_spec(), 1, 0);
  const std::uint64_t running = queue.submit(small_spec(), 2, 0);

  // Make `running` Running but leave `queued`... pop_batch is FIFO, so
  // pop one: that is the first submit. Re-order: cancel the second while
  // the first runs.
  const std::vector<std::uint64_t> batch = queue.pop_batch(1);
  ASSERT_EQ(batch, (std::vector<std::uint64_t>{queued}));

  EXPECT_EQ(queue.cancel(running), JobState::Cancelled);
  EXPECT_EQ(queue.counters().cancelled, 1u);
  // Cancelling a Running job is refused: state reported unchanged.
  EXPECT_EQ(queue.cancel(queued), JobState::Running);
  // Cancelled ids never surface in later batches.
  queue.close();
  EXPECT_TRUE(queue.pop_batch(4).empty());
  // Unknown ids are distinguishable from refusals.
  EXPECT_EQ(queue.cancel(999), std::nullopt);
}

TEST(ServiceQueue, CompleteAndFailProduceTerminalRecords) {
  JobQueue queue(4, nullptr);
  const std::uint64_t ok = queue.submit(small_spec(), 1, 0);
  const std::uint64_t bad = queue.submit(small_spec(), 2, 0);
  queue.pop_batch(2);

  queue.complete(ok, some_bytes(), false, 55);
  queue.fail(bad, ErrorCode::ExecutionFailed, "exploded");

  const std::optional<JobRecord> done = queue.status(ok);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done);
  EXPECT_EQ(done->compute_us, 55u);
  ASSERT_NE(done->result, nullptr);
  EXPECT_EQ(done->result->size(), 4u);

  const std::optional<JobRecord> failed = queue.status(bad);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_EQ(failed->error, ErrorCode::ExecutionFailed);
  EXPECT_EQ(failed->error_message, "exploded");
  EXPECT_EQ(queue.in_flight(), 0);
  EXPECT_EQ(queue.counters().completed, 1u);
  EXPECT_EQ(queue.counters().failed, 1u);
}

// Queue-wait expiry is driven entirely by the injected tick source: a
// job whose deadline passes before its batch starts is Expired and never
// returned. With no tick source, timeouts never fire.
TEST(ServiceQueue, TickDrivenQueueWaitExpiry) {
  std::atomic<std::uint64_t> now{0};
  JobQueue queue(4, [&] { return now.load(); });

  const std::uint64_t expired = queue.submit(small_spec(), 1, 100);
  const std::uint64_t alive = queue.submit(small_spec(), 2, 1'000'000);
  now.store(500);  // past the first deadline, inside the second

  const std::vector<std::uint64_t> batch = queue.pop_batch(4);
  EXPECT_EQ(batch, (std::vector<std::uint64_t>{alive}));
  EXPECT_EQ(queue.status(expired)->state, JobState::Expired);
  EXPECT_EQ(queue.counters().expired, 1u);
  // wall_us is measured in ticks: submit at 0, expired at 500.
  EXPECT_EQ(queue.status(expired)->wall_us, 500u);
}

TEST(ServiceQueue, NullTickDisablesTimeoutsAndTimings) {
  JobQueue queue(4, nullptr);
  const std::uint64_t id = queue.submit(small_spec(), 1, /*timeout_us=*/1);
  const std::vector<std::uint64_t> batch = queue.pop_batch(4);
  EXPECT_EQ(batch, (std::vector<std::uint64_t>{id}));  // never expires
  queue.complete(id, some_bytes(), false, 0);
  EXPECT_EQ(queue.status(id)->wall_us, 0u);
}

TEST(ServiceQueue, WaitTerminalBlocksUntilCompletion) {
  JobQueue queue(4, nullptr);
  const std::uint64_t id = queue.submit(small_spec(), 1, 0);

  std::thread completer([&] {
    const std::vector<std::uint64_t> batch = queue.pop_batch(1);
    ASSERT_EQ(batch.size(), 1u);
    queue.complete(batch[0], some_bytes(), false, 7);
  });
  const std::optional<JobRecord> rec = queue.wait_terminal(id);
  completer.join();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::Done);
  EXPECT_EQ(rec->compute_us, 7u);
}

// The non-drain shutdown path: close() + cancel_all_queued() must wake
// every wait_terminal with a terminal record, never leave a waiter
// blocked on a job that will never run.
TEST(ServiceQueue, CancelAllQueuedWakesWaiters) {
  JobQueue queue(4, nullptr);
  const std::uint64_t id = queue.submit(small_spec(), 1, 0);

  std::thread shutdown([&] {
    queue.close();
    queue.cancel_all_queued();
  });
  const std::optional<JobRecord> rec = queue.wait_terminal(id);
  shutdown.join();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::Cancelled);
  EXPECT_EQ(queue.submit(small_spec(), 2, 0), 0u);  // closed: rejected
}

TEST(ServiceQueue, PopBatchUnblocksOnClose) {
  JobQueue queue(4, nullptr);
  std::thread closer([&] { queue.close(); });
  EXPECT_TRUE(queue.pop_batch(1).empty());
  closer.join();
  EXPECT_TRUE(queue.closed());
}

TEST(ServiceQueue, TerminalRingForgetsOldestRecords) {
  JobQueue queue(1, nullptr);
  std::uint64_t first = 0;
  for (int i = 0; i < JobQueue::kRetainedTerminal + 10; ++i) {
    const std::uint64_t id = queue.submit(small_spec(), 1, 0);
    ASSERT_NE(id, 0u);
    if (first == 0) first = id;
    queue.pop_batch(1);
    queue.complete(id, some_bytes(), false, 0);
  }
  EXPECT_EQ(queue.status(first), std::nullopt);  // forgotten
  EXPECT_NE(queue.status(first + JobQueue::kRetainedTerminal + 5),
            std::nullopt);
}

}  // namespace
}  // namespace qdc::service
