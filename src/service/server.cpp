#include "service/server.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "service/executor.hpp"
#include "service/job_spec.hpp"
#include "util/expect.hpp"

namespace qdc::service {

namespace {

/// Pending connections the listening socket queues before accept().
constexpr int kListenBacklog = 16;

}  // namespace

ExperimentServer::ExperimentServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity, options_.tick),
      cache_(options_.cache_bytes),
      runner_(util::SweepOptions{options_.workers, /*master_seed=*/0}) {
  QDC_EXPECT(!options_.socket_path.empty(),
             "ExperimentServer: socket_path must be set");
}

ExperimentServer::~ExperimentServer() { stop(); }

void ExperimentServer::start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    QDC_EXPECT(!started_, "ExperimentServer: start() called twice");
    started_ = true;
  }
  listener_ = listen_unix(options_.socket_path, kListenBacklog);
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
}

void ExperimentServer::wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  lifecycle_cv_.wait(lock, [&] { return stop_requested_ || stopped_; });
}

void ExperimentServer::stop() {
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    drain = drain_on_stop_;
  }
  lifecycle_cv_.notify_all();

  // 1. No new work; optionally abandon queued work. The dispatcher then
  //    finishes its in-flight batch (plus the backlog when draining) and
  //    exits, which also unblocks every wait_terminal.
  queue_.close();
  if (!drain) queue_.cancel_all_queued();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();

  // 2. Stop accepting; then wake every connection handler out of its
  //    blocking read so the threads can be joined. shutdown() wakes the
  //    accept thread; the listener fd is closed only after that thread is
  //    joined, since it reads the fd until then.
  shutdown_socket(listener_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();

  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& slot : connections_) shutdown_socket(slot->fd);
  for (const auto& slot : connections_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  connections_.clear();
}

bool ExperimentServer::running() const {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  return started_ && !stopped_;
}

AdminStats ExperimentServer::stats() const {
  AdminStats s;
  s.queue_depth = static_cast<std::uint64_t>(queue_.depth());
  s.queue_capacity = static_cast<std::uint64_t>(queue_.capacity());
  s.in_flight = static_cast<std::uint64_t>(queue_.in_flight());
  s.jobs_submitted = submits_accepted_.load();
  const QueueCounters q = queue_.counters();
  s.jobs_completed = q.completed;
  s.jobs_cancelled = q.cancelled;
  s.jobs_expired = q.expired;
  s.jobs_failed = q.failed;
  const CacheStats c = cache_.stats();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  s.cache_evictions = c.evictions;
  s.cache_bytes = c.bytes;
  s.cache_capacity_bytes = c.capacity_bytes;
  s.cache_entries = c.entries;
  {
    std::lock_guard<std::mutex> lock(timing_mutex_);
    s.total_wall_us = timing_.total_wall_us;
    s.total_compute_us = timing_.total_compute_us;
    s.max_wall_us = timing_.max_wall_us;
    s.max_compute_us = timing_.max_compute_us;
  }
  return s;
}

void ExperimentServer::accept_loop() {
  for (;;) {
    Fd conn = accept_connection(listener_);
    if (!conn.valid()) return;  // listener shut down: server stopping
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // Reap handlers that already finished so an arrival-heavy workload
    // does not accumulate dead threads.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto slot = std::make_unique<ConnSlot>();
    slot->fd = std::move(conn);
    ConnSlot* raw = slot.get();
    slot->thread = std::thread([this, raw] { connection_loop(raw); });
    connections_.push_back(std::move(slot));
  }
}

void ExperimentServer::dispatcher_loop() {
  const int batch_max = runner_.worker_count();
  for (;;) {
    const std::vector<std::uint64_t> batch = queue_.pop_batch(batch_max);
    if (batch.empty()) {
      if (queue_.closed()) return;  // drained (or cancelled) and closing
      continue;  // every dequeued entry had been cancelled/expired
    }
    run_batch(batch);
  }
}

void ExperimentServer::run_batch(const std::vector<std::uint64_t>& batch) {
  // alignas keeps adjacent shard slots off one cache line: workers write
  // their own slot concurrently.
  struct alignas(64) Slot {
    bool ok = false;
    std::vector<std::uint8_t> payload;
    std::string error;
    std::uint64_t compute_us = 0;
  };
  const std::size_t count = batch.size();
  std::vector<Slot> slots(count);
  std::vector<JobSpec> specs(count);
  std::vector<std::uint64_t> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<JobRecord> rec = queue_.status(batch[i]);
    QDC_EXPECT(rec.has_value(), "run_batch: popped id has no record");
    specs[i] = rec->spec;
    keys[i] = rec->key;
  }

  // Workers write only their batch-indexed slot; everything shared
  // (cache, queue, timing) is touched serially below, in batch order, so
  // cache admission/eviction order is independent of worker interleaving.
  runner_.run(static_cast<int>(count), [&](const util::SweepJob& job) {
    const auto idx = static_cast<std::size_t>(job.index);
    const std::uint64_t t0 = now_us();
    try {
      slots[idx].payload = execute_job(specs[idx]);
      slots[idx].ok = true;
    } catch (const std::exception& e) {
      slots[idx].error = e.what();
    }
    const std::uint64_t t1 = now_us();
    slots[idx].compute_us = t1 >= t0 ? t1 - t0 : 0;
  });

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id = batch[i];
    // Record timing before the terminal transition: complete()/fail()
    // wake wait_terminal waiters, and a client that was unblocked by
    // that wakeup may immediately read admin stats.
    const std::optional<JobRecord> running = queue_.status(id);
    const std::uint64_t now = now_us();
    const std::uint64_t wall =
        running && now >= running->submit_tick ? now - running->submit_tick
                                               : 0;
    record_timing(wall, slots[i].compute_us);
    if (slots[i].ok) {
      auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
          std::move(slots[i].payload));
      cache_.insert(keys[i], bytes);
      queue_.complete(id, std::move(bytes), /*cached=*/false,
                      slots[i].compute_us);
    } else {
      queue_.fail(id, ErrorCode::ExecutionFailed, slots[i].error);
    }
  }
}

void ExperimentServer::connection_loop(ConnSlot* slot) {
  for (;;) {
    const ReadFrameResult frame = read_frame(slot->fd);
    if (frame.status == ReadStatus::Eof) break;
    if (frame.status == ReadStatus::Malformed) {
      // Framing is broken; answer once and close — there is no way to
      // find the next frame boundary on this stream.
      send_error(slot->fd, frame.error, error_code_name(frame.error));
      break;
    }
    if (!is_request(frame.header.type)) {
      send_error(slot->fd, ErrorCode::UnknownMessageType,
                 "not a request type");
      break;
    }
    if (!dispatch_request(slot->fd, frame.header.type, frame.payload)) break;
  }
  // Half-close so the peer observes EOF as soon as the session ends. The
  // fd itself is closed by whoever joins this thread (the accept-loop
  // reaper or stop()) — never here, so stop()'s own shutdown sweep can
  // race-freely touch every slot.
  shutdown_socket(slot->fd);
  slot->done.store(true);
}

bool ExperimentServer::dispatch_request(
    const Fd& fd, MessageType type, const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  try {
    switch (type) {
      case MessageType::SubmitRequest:
        return handle_submit(fd, r);
      case MessageType::PollRequest:
        return handle_poll(fd, r);
      case MessageType::CancelRequest:
        return handle_cancel(fd, r);
      case MessageType::AdminRequest:
        return handle_admin(fd);
      case MessageType::ShutdownRequest:
        return handle_shutdown(fd, r);
      default:
        return send_error(fd, ErrorCode::UnknownMessageType,
                          "not a request type");
    }
  } catch (const std::exception& e) {
    // Payload-level decode failure: the frame boundary is intact, so the
    // connection stays usable after the error answer.
    return send_error(fd, ErrorCode::MalformedPayload, e.what());
  }
}

bool ExperimentServer::handle_submit(const Fd& fd, WireReader& r) {
  const std::uint64_t t0 = now_us();
  const std::uint8_t flags = r.u8();
  const std::uint64_t timeout_us = r.u64();
  const JobSpec spec = JobSpec::decode(r);
  QDC_CHECK(r.exhausted(), "SubmitRequest: trailing bytes");

  const std::string problem = spec.validate();
  if (!problem.empty()) {
    return send_error(fd, ErrorCode::BadJobSpec, problem);
  }
  if (queue_.closed()) {
    return send_error(fd, ErrorCode::Draining, "server is shutting down");
  }

  const std::uint64_t key = cache_key(spec);
  if (ResultBytes hit = cache_.lookup(key)) {
    submits_accepted_.fetch_add(1);
    JobStatus status;
    status.job_id = 0;  // served inline, never queued
    status.state = JobState::Done;
    status.cached = true;
    const std::uint64_t t1 = now_us();
    status.wall_us = t1 >= t0 ? t1 - t0 : 0;
    status.result = *hit;
    record_timing(status.wall_us, 0);
    return write_frame(fd, MessageType::SubmitResponse, status.encode());
  }

  const std::uint64_t id = queue_.submit(spec, key, timeout_us);
  if (id == 0) {
    return queue_.closed()
               ? send_error(fd, ErrorCode::Draining,
                            "server is shutting down")
               : send_error(fd, ErrorCode::QueueFull,
                            "job queue is at capacity");
  }
  submits_accepted_.fetch_add(1);

  if ((flags & kSubmitFlagWait) != 0) {
    const std::optional<JobRecord> rec = queue_.wait_terminal(id);
    if (!rec) {
      return send_error(fd, ErrorCode::UnknownJob, "job record expired");
    }
    return write_frame(fd, MessageType::SubmitResponse,
                       status_from_record(*rec).encode());
  }

  JobStatus status;
  status.job_id = id;
  status.state = JobState::Queued;
  return write_frame(fd, MessageType::SubmitResponse, status.encode());
}

bool ExperimentServer::handle_poll(const Fd& fd, WireReader& r) {
  const std::uint64_t id = r.u64();
  QDC_CHECK(r.exhausted(), "PollRequest: trailing bytes");
  const std::optional<JobRecord> rec = queue_.status(id);
  if (!rec) {
    return send_error(fd, ErrorCode::UnknownJob,
                      "job id is not (or no longer) registered");
  }
  return write_frame(fd, MessageType::PollResponse,
                     status_from_record(*rec).encode());
}

bool ExperimentServer::handle_cancel(const Fd& fd, WireReader& r) {
  const std::uint64_t id = r.u64();
  QDC_CHECK(r.exhausted(), "CancelRequest: trailing bytes");
  const std::optional<JobState> state = queue_.cancel(id);
  if (!state) {
    return send_error(fd, ErrorCode::UnknownJob,
                      "job id is not (or no longer) registered");
  }
  if (*state != JobState::Cancelled) {
    return send_error(fd, ErrorCode::NotCancellable,
                      std::string("job is ") + job_state_name(*state));
  }
  WireWriter w;
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(*state));
  return write_frame(fd, MessageType::CancelResponse, w.take());
}

bool ExperimentServer::handle_admin(const Fd& fd) {
  return write_frame(fd, MessageType::AdminResponse, stats().encode());
}

bool ExperimentServer::handle_shutdown(const Fd& fd, WireReader& r) {
  const std::uint8_t drain = r.u8();
  QDC_CHECK(r.exhausted(), "ShutdownRequest: trailing bytes");
  WireWriter w;
  w.u8(drain != 0 ? 1 : 0);
  const bool sent =
      write_frame(fd, MessageType::ShutdownResponse, w.take());
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    stop_requested_ = true;
    if (drain != 0) drain_on_stop_ = true;
  }
  // Reject new submits right away; the owner thread observes wait()
  // returning and calls stop(), which drains or cancels per the flag.
  queue_.close();
  lifecycle_cv_.notify_all();
  return sent;
}

bool ExperimentServer::send_error(const Fd& fd, ErrorCode code,
                                  const std::string& message) {
  ErrorBody body;
  body.code = code;
  body.message = message;
  return write_frame(fd, MessageType::ErrorResponse, body.encode());
}

void ExperimentServer::record_timing(std::uint64_t wall_us,
                                     std::uint64_t compute_us) {
  std::lock_guard<std::mutex> lock(timing_mutex_);
  timing_.total_wall_us += wall_us;
  timing_.total_compute_us += compute_us;
  if (wall_us > timing_.max_wall_us) timing_.max_wall_us = wall_us;
  if (compute_us > timing_.max_compute_us) timing_.max_compute_us = compute_us;
}

JobStatus ExperimentServer::status_from_record(const JobRecord& rec) {
  JobStatus status;
  status.job_id = rec.id;
  status.state = rec.state;
  status.cached = rec.cached;
  status.error = rec.error;
  status.error_message = rec.error_message;
  status.wall_us = rec.wall_us;
  status.compute_us = rec.compute_us;
  if (rec.result) status.result = *rec.result;
  return status;
}

}  // namespace qdc::service
