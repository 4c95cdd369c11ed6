#include "service/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/expect.hpp"

namespace qdc::service {

JobQueue::JobQueue(int capacity, TickSource tick)
    : capacity_(capacity), tick_(std::move(tick)) {
  QDC_EXPECT(capacity >= 1, "JobQueue: capacity must be >= 1");
}

std::uint64_t JobQueue::now_us_locked() const {
  return tick_ ? tick_() : 0;
}

std::uint64_t JobQueue::submit(const JobSpec& spec, std::uint64_t key,
                               std::uint64_t timeout_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_ || static_cast<int>(fifo_.size()) >= capacity_) {
    ++counters_.rejected_full;
    return 0;
  }
  const std::uint64_t id = next_id_++;
  JobRecord rec;
  rec.id = id;
  rec.spec = spec;
  rec.key = key;
  rec.state = JobState::Queued;
  rec.submit_tick = now_us_locked();
  rec.timeout_us = timeout_us;
  records_.emplace(id, std::move(rec));
  fifo_.push_back(id);
  ++counters_.submitted;
  work_cv_.notify_one();
  return id;
}

std::vector<std::uint64_t> JobQueue::pop_batch(int max_jobs) {
  QDC_EXPECT(max_jobs >= 1, "JobQueue: pop_batch needs max_jobs >= 1");
  std::unique_lock<std::mutex> lock(mutex_);
  work_cv_.wait(lock, [&] { return closed_ || !fifo_.empty(); });
  std::vector<std::uint64_t> batch;
  const std::uint64_t now = now_us_locked();
  while (!fifo_.empty() && static_cast<int>(batch.size()) < max_jobs) {
    const std::uint64_t id = fifo_.front();
    fifo_.pop_front();
    auto it = records_.find(id);
    QDC_EXPECT(it != records_.end(), "JobQueue: queued id has no record");
    JobRecord& rec = it->second;
    if (rec.timeout_us != 0 && tick_ &&
        now >= rec.submit_tick + rec.timeout_us) {
      finish_locked(rec, JobState::Expired);
      continue;
    }
    rec.state = JobState::Running;
    ++running_;
    batch.push_back(id);
  }
  return batch;
}

std::optional<JobState> JobQueue::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  JobRecord& rec = it->second;
  if (rec.state == JobState::Queued) {
    // Leaving fifo_ frees the job's admission slot at once.
    fifo_.erase(std::find(fifo_.begin(), fifo_.end(), id));
    finish_locked(rec, JobState::Cancelled);
  }
  return rec.state;
}

void JobQueue::complete(std::uint64_t id, ResultBytes result, bool cached,
                        std::uint64_t compute_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  QDC_EXPECT(it != records_.end() && it->second.state == JobState::Running,
             "JobQueue: complete() on a job that is not Running");
  JobRecord& rec = it->second;
  rec.result = std::move(result);
  rec.cached = cached;
  rec.compute_us = compute_us;
  --running_;
  finish_locked(rec, JobState::Done);
}

void JobQueue::fail(std::uint64_t id, ErrorCode code,
                    const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  QDC_EXPECT(it != records_.end() && it->second.state == JobState::Running,
             "JobQueue: fail() on a job that is not Running");
  JobRecord& rec = it->second;
  rec.error = code;
  rec.error_message = message;
  --running_;
  finish_locked(rec, JobState::Failed);
}

std::optional<JobRecord> JobQueue::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::optional<JobRecord> JobQueue::wait_terminal(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = records_.find(id);
    if (it == records_.end()) return std::nullopt;
    if (is_terminal(it->second.state)) return it->second;
    terminal_cv_.wait(lock);
  }
}

void JobQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  work_cv_.notify_all();
  terminal_cv_.notify_all();
}

void JobQueue::cancel_all_queued() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint64_t id : fifo_) {
    finish_locked(records_.at(id), JobState::Cancelled);
  }
  fifo_.clear();
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

int JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(fifo_.size());
}

int JobQueue::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

QueueCounters JobQueue::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void JobQueue::finish_locked(JobRecord& rec, JobState state) {
  rec.state = state;
  const std::uint64_t now = now_us_locked();
  rec.wall_us = now >= rec.submit_tick ? now - rec.submit_tick : 0;
  switch (state) {
    case JobState::Done: ++counters_.completed; break;
    case JobState::Cancelled: ++counters_.cancelled; break;
    case JobState::Expired: ++counters_.expired; break;
    case JobState::Failed: ++counters_.failed; break;
    default: QDC_EXPECT(false, "JobQueue: finish_locked on non-terminal");
  }
  terminal_ring_.push_back(rec.id);
  prune_terminal_locked();
  terminal_cv_.notify_all();
}

void JobQueue::prune_terminal_locked() {
  while (static_cast<int>(terminal_ring_.size()) > kRetainedTerminal) {
    const std::uint64_t victim = terminal_ring_.front();
    terminal_ring_.pop_front();
    records_.erase(victim);
  }
}

}  // namespace qdc::service
