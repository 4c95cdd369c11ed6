// The experiment service daemon core: a long-lived server that accepts
// JobSpec requests over the length-prefixed wire protocol on a local
// unix-domain socket, multiplexes concurrent clients onto one bounded
// FIFO job queue, executes batches on the util::SweepRunner machinery,
// and serves repeated specs from the content-addressed result cache.
//
// Threading model (docs/SERVICE.md "Operations" section):
//
//   * one accept thread; one handler thread per connection (the protocol
//     is strictly request/response, so a connection is a session of
//     serial requests — a WAIT submit parks only its own connection);
//   * one dispatcher thread drains the queue in batches of at most
//     `workers` jobs and runs each batch on a SweepRunner. Job closures
//     write only batch-indexed slots; cache insertion and terminal
//     transitions happen serially in batch order afterwards, so the
//     cache's LRU/eviction sequence is a deterministic function of the
//     admission order, never of worker interleaving.
//
// Determinism contract: the server adds no entropy. Results come from
// execute_job (pure in the spec), timings come only from the injected
// TickSource (null = all timings zero, timeouts disabled) — src/service
// never reads a wall clock; the daemon binary in tools/service injects
// one, exactly as bench/harness.* does for the sweep layer.
//
// Shutdown: a ShutdownRequest (or Ctrl-C in the daemon) makes wait()
// return; the owner then calls stop(), which drains or cancels the
// queue (per the request's drain flag), joins the dispatcher, closes
// the listener and every connection, and joins all handler threads.
// stop() is idempotent and also runs from the destructor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/job_queue.hpp"
#include "service/result_cache.hpp"
#include "service/socket_io.hpp"
#include "service/wire.hpp"
#include "util/sweep.hpp"

namespace qdc::service {

struct ServerOptions {
  std::string socket_path;

  /// Sweep workers executing job batches. 1 = serial (default);
  /// 0 = all hardware threads. Results are identical for every value.
  int workers = 1;

  /// Bounded FIFO admission: submits beyond this many queued jobs are
  /// rejected with QueueFull (explicit backpressure).
  int queue_capacity = 256;

  /// Result-cache budget in payload bytes.
  std::uint64_t cache_bytes = 64ull << 20;

  /// Monotonic microsecond source for admin timings and queue-wait
  /// timeouts. Null (default) keeps src/ wall-clock-free: timings read
  /// as 0 and timeouts never fire.
  TickSource tick;
};

class ExperimentServer {
 public:
  explicit ExperimentServer(ServerOptions options);
  ~ExperimentServer();

  ExperimentServer(const ExperimentServer&) = delete;
  ExperimentServer& operator=(const ExperimentServer&) = delete;

  /// Binds the socket and starts the accept + dispatcher threads.
  /// Throws ModelError when the socket cannot be bound.
  void start();

  /// Blocks until a ShutdownRequest arrives or stop() is called from
  /// another thread.
  void wait();

  /// Stops the server: closes the queue (draining it first iff the
  /// pending shutdown asked to), joins the dispatcher, shuts every
  /// connection and joins all threads. Idempotent.
  void stop();

  bool running() const;

  /// Assembled admin snapshot (same data AdminRequest serves).
  AdminStats stats() const;

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct ConnSlot {
    Fd fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct Timing {
    std::uint64_t total_wall_us = 0;
    std::uint64_t total_compute_us = 0;
    std::uint64_t max_wall_us = 0;
    std::uint64_t max_compute_us = 0;
  };

  void accept_loop();
  void dispatcher_loop();
  void run_batch(const std::vector<std::uint64_t>& batch);
  void connection_loop(ConnSlot* slot);

  /// Handles one well-formed frame; false = close the connection.
  bool dispatch_request(const Fd& fd, MessageType type,
                        const std::vector<std::uint8_t>& payload);
  bool handle_submit(const Fd& fd, WireReader& r);
  bool handle_poll(const Fd& fd, WireReader& r);
  bool handle_cancel(const Fd& fd, WireReader& r);
  bool handle_admin(const Fd& fd);
  bool handle_shutdown(const Fd& fd, WireReader& r);
  bool send_error(const Fd& fd, ErrorCode code, const std::string& message);

  void record_timing(std::uint64_t wall_us, std::uint64_t compute_us);
  std::uint64_t now_us() const { return options_.tick ? options_.tick() : 0; }

  static JobStatus status_from_record(const JobRecord& rec);

  ServerOptions options_;
  JobQueue queue_;
  ResultCache cache_;
  util::SweepRunner runner_;

  Fd listener_;
  std::thread accept_thread_;
  std::thread dispatcher_thread_;

  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<ConnSlot>> connections_;

  mutable std::mutex lifecycle_mutex_;
  std::condition_variable lifecycle_cv_;
  bool started_ = false;
  bool stop_requested_ = false;
  bool drain_on_stop_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> submits_accepted_{0};

  mutable std::mutex timing_mutex_;
  Timing timing_;
};

}  // namespace qdc::service
