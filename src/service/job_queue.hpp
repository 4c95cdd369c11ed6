// Bounded FIFO job queue + job registry of the experiment server.
//
// The queue is the server's single admission point: submits either get a
// job id (FIFO position) or are rejected with QueueFull — backpressure
// is explicit and immediate, never a silent buffer. A dispatcher drains
// the queue in batches (pop_batch blocks until work or close), executes
// each batch on the sweep machinery, and reports terminal states back
// through complete()/fail(). Connection handlers that chose to wait
// block in wait_terminal(); every terminal transition broadcasts.
//
// Cancellation has exactly one semantics: a job can be cancelled while
// Queued and never after — pop_batch atomically moves Queued jobs to
// Running, so cancel() and dispatch can race without a job ever running
// half-cancelled. Timeouts are queue-wait deadlines measured in ticks of
// the injected tick source (service/stats-free: the library never reads
// a wall clock; the daemon injects one, tests inject counters): a job
// whose deadline passed before its batch started is marked Expired and
// skipped.
//
// Terminal records are retained for polling in a bounded completion ring
// (kRetainedTerminal); the oldest are forgotten first, after which polls
// answer UnknownJob.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "service/wire.hpp"

namespace qdc::service {

/// Monotonic microsecond source. A null function disables every timeout
/// and zeroes all timings — the library itself never reads a clock.
using TickSource = std::function<std::uint64_t()>;

/// Everything the server remembers about one submitted job.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  std::uint64_t key = 0;  ///< cache_key(spec)
  JobState state = JobState::Queued;
  bool cached = false;
  ErrorCode error = ErrorCode::None;
  std::string error_message;
  std::uint64_t submit_tick = 0;
  std::uint64_t timeout_us = 0;  ///< queue-wait deadline; 0 = none
  std::uint64_t wall_us = 0;     ///< submit -> terminal
  std::uint64_t compute_us = 0;  ///< executor time (0 for cache hits)
  ResultBytes result;            ///< set iff state == Done
};

struct QueueCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_full = 0;
};

class JobQueue {
 public:
  /// At most `capacity` jobs may be Queued at once; `tick` provides
  /// submit/terminal timestamps (null = no clock, no timeouts).
  JobQueue(int capacity, TickSource tick);

  /// FIFO-admits a job. Returns the new job id, or 0 when the queue is
  /// full or closed (counted rejected_full; callers answer QueueFull /
  /// Draining). Ids start at 1 and increase in admission order.
  std::uint64_t submit(const JobSpec& spec, std::uint64_t key,
                       std::uint64_t timeout_us);

  /// Blocks until at least one job is Queued or the queue is closed.
  /// Dequeues up to `max_jobs` ids in FIFO order and atomically moves
  /// them Queued -> Running (jobs whose queue-wait deadline has passed
  /// become Expired instead and are not returned). May return empty when
  /// every dequeued entry had expired; an empty return with closed() true
  /// means fully drained — dispatchers loop on `batch.empty() && closed()`.
  std::vector<std::uint64_t> pop_batch(int max_jobs);

  /// Cancels `id` iff it is still Queued, which frees its admission slot
  /// at once. Returns the resulting state, or nullopt for unknown ids.
  std::optional<JobState> cancel(std::uint64_t id);

  /// Terminal transitions, called by the dispatcher.
  void complete(std::uint64_t id, ResultBytes result, bool cached,
                std::uint64_t compute_us);
  void fail(std::uint64_t id, ErrorCode code, const std::string& message);

  /// Snapshot of one record (result shared, not copied); nullopt for
  /// unknown/forgotten ids.
  std::optional<JobRecord> status(std::uint64_t id) const;

  /// Blocks until `id` reaches a terminal state (or is unknown); returns
  /// its final record.
  std::optional<JobRecord> wait_terminal(std::uint64_t id);

  /// Rejects future submits and wakes every pop_batch/wait_terminal.
  /// Queued jobs stay queued: a draining dispatcher keeps popping until
  /// pop_batch returns empty.
  void close();

  /// Cancels every still-Queued job (the non-drain shutdown path, so no
  /// waiter blocks on a job that will never run).
  void cancel_all_queued();

  bool closed() const;

  /// Jobs currently Queued.
  int depth() const;

  /// Jobs currently Running.
  int in_flight() const;

  int capacity() const { return capacity_; }

  QueueCounters counters() const;

  /// Oldest terminal records beyond this many are forgotten.
  static constexpr int kRetainedTerminal = 4096;

 private:
  std::uint64_t now_us_locked() const;
  void finish_locked(JobRecord& rec, JobState state);
  void prune_terminal_locked();

  const int capacity_;
  const TickSource tick_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;      // queued work / close
  std::condition_variable terminal_cv_;  // any terminal transition
  bool closed_ = false;
  std::uint64_t next_id_ = 1;
  std::deque<std::uint64_t> fifo_;  // Queued ids in admission order
  std::unordered_map<std::uint64_t, JobRecord> records_;
  std::deque<std::uint64_t> terminal_ring_;  // terminal ids, oldest first
  int running_ = 0;
  QueueCounters counters_;
};

}  // namespace qdc::service
