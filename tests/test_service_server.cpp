// End-to-end server tests over a real unix-domain socket: the cache-hit
// byte-identity guarantee, malformed-frame handling, disconnect during a
// job, queue-full backpressure, wire-level cancellation, shutdown modes,
// and admin-counter consistency under concurrent clients (the TSan CI
// job runs every Service* suite).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/client.hpp"
#include "service/job_spec.hpp"
#include "service/server.hpp"
#include "service/socket_io.hpp"
#include "service/wire.hpp"

namespace qdc::service {
namespace {

std::string test_socket(const std::string& name) {
  return "/tmp/qdc_svc_" + std::to_string(::getpid()) + "_" + name + ".sock";
}

ServerOptions base_options(const std::string& name) {
  ServerOptions options;
  options.socket_path = test_socket(name);
  options.workers = 1;
  options.queue_capacity = 16;
  options.cache_bytes = 1 << 20;
  return options;
}

JobSpec census_spec(std::uint32_t nodes) {
  JobSpec spec;
  spec.topology = TopologyKind::Path;
  spec.algorithm = AlgorithmKind::Census;
  spec.nodes = nodes;
  return spec;
}

/// ~50-200ms of single-threaded compute (leader election walks the whole
/// cycle): long enough that a submit issued while this runs is
/// guaranteed to find the dispatcher busy, short enough for CI.
JobSpec slow_spec(std::uint64_t seed_tweak = 0) {
  JobSpec spec;
  spec.topology = TopologyKind::Cycle;
  spec.algorithm = AlgorithmKind::Leader;
  spec.nodes = 1024;
  spec.shared_seed = 0x9e3779b97f4a7c15ULL ^ seed_tweak;
  return spec;
}

/// Polls until the job leaves Queued (bounded); returns the last state.
JobState wait_until_running(ServiceClient& client, std::uint64_t id) {
  for (int i = 0; i < 2000; ++i) {
    const PollResult r = client.poll(id);
    if (r.error != ErrorCode::None) return JobState::Failed;
    if (r.status.state != JobState::Queued) return r.status.state;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return JobState::Queued;
}

/// Polls until the job is terminal (bounded); returns its final status.
JobStatus wait_until_terminal(ServiceClient& client, std::uint64_t id) {
  for (int i = 0; i < 20000; ++i) {
    const PollResult r = client.poll(id);
    if (r.error != ErrorCode::None || is_terminal(r.status.state)) {
      return r.status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return JobStatus{};
}

TEST(ServiceServer, CacheHitByteIdentical) {
  ExperimentServer server(base_options("cachehit"));
  server.start();
  ServiceClient client(server.socket_path());

  const SubmitResult first = client.submit(census_spec(64));
  ASSERT_EQ(first.error, ErrorCode::None) << first.error_message;
  ASSERT_EQ(first.status.state, JobState::Done);
  EXPECT_FALSE(first.status.cached);
  EXPECT_FALSE(first.status.result.empty());

  const SubmitResult second = client.submit(census_spec(64));
  ASSERT_EQ(second.error, ErrorCode::None);
  ASSERT_EQ(second.status.state, JobState::Done);
  EXPECT_TRUE(second.status.cached);
  // The whole point of content addressing: byte-identical payloads.
  EXPECT_EQ(second.status.result, first.status.result);

  // A different connection shares the same cache.
  ServiceClient other(server.socket_path());
  const SubmitResult third = other.submit(census_spec(64));
  ASSERT_EQ(third.error, ErrorCode::None);
  EXPECT_TRUE(third.status.cached);
  EXPECT_EQ(third.status.result, first.status.result);

  const AdminResult admin = client.admin();
  ASSERT_EQ(admin.error, ErrorCode::None);
  EXPECT_EQ(admin.stats.cache_hits, 2u);
  EXPECT_EQ(admin.stats.cache_misses, 1u);
  EXPECT_EQ(admin.stats.jobs_completed, 1u);
  EXPECT_EQ(admin.stats.jobs_submitted, 3u);
  server.stop();
}

TEST(ServiceServer, NullTickMeansZeroTimings) {
  ExperimentServer server(base_options("notick"));
  server.start();
  ServiceClient client(server.socket_path());
  const SubmitResult r = client.submit(census_spec(16));
  ASSERT_EQ(r.error, ErrorCode::None);
  EXPECT_EQ(r.status.wall_us, 0u);
  EXPECT_EQ(r.status.compute_us, 0u);
  const AdminResult admin = client.admin();
  ASSERT_EQ(admin.error, ErrorCode::None);
  EXPECT_EQ(admin.stats.total_wall_us, 0u);
  EXPECT_EQ(admin.stats.total_compute_us, 0u);
  server.stop();
}

TEST(ServiceServer, InjectedTickDrivesTimings) {
  ServerOptions options = base_options("tick");
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  options.tick = [counter] { return counter->fetch_add(100); };
  ExperimentServer server(options);
  server.start();
  ServiceClient client(server.socket_path());
  const SubmitResult r = client.submit(census_spec(16));
  ASSERT_EQ(r.error, ErrorCode::None);
  EXPECT_GT(r.status.wall_us, 0u);
  const AdminResult admin = client.admin();
  ASSERT_EQ(admin.error, ErrorCode::None);
  EXPECT_GT(admin.stats.total_wall_us, 0u);
  EXPECT_GT(admin.stats.total_compute_us, 0u);
  server.stop();
}

TEST(ServiceServer, MalformedMagicAnswersThenCloses) {
  ExperimentServer server(base_options("badmagic"));
  server.start();
  ServiceClient client(server.socket_path());

  std::vector<std::uint8_t> junk(kFrameHeaderSize, 0x58);  // 'X' * 12
  ASSERT_TRUE(client.send_raw(junk));
  const ReadFrameResult answer = client.read_raw();
  ASSERT_EQ(answer.status, ReadStatus::Ok);
  EXPECT_EQ(answer.header.type, MessageType::ErrorResponse);
  WireReader r(answer.payload);
  EXPECT_EQ(ErrorBody::decode(r).code, ErrorCode::BadMagic);

  // Framing is unrecoverable: the server closes this connection.
  EXPECT_EQ(client.read_raw().status, ReadStatus::Eof);

  // But the server itself is unharmed.
  ServiceClient fresh(server.socket_path());
  EXPECT_EQ(fresh.submit(census_spec(8)).error, ErrorCode::None);
  server.stop();
}

TEST(ServiceServer, OversizedFrameRejected) {
  ExperimentServer server(base_options("oversize"));
  server.start();
  ServiceClient client(server.socket_path());

  std::vector<std::uint8_t> frame = encode_frame(MessageType::AdminRequest, {});
  frame[8] = 0xFF;  // payload length = 0xFFFFFFFF >> kMaxPayload
  frame[9] = 0xFF;
  frame[10] = 0xFF;
  frame[11] = 0xFF;
  ASSERT_TRUE(client.send_raw(frame));
  const ReadFrameResult answer = client.read_raw();
  ASSERT_EQ(answer.status, ReadStatus::Ok);
  WireReader r(answer.payload);
  EXPECT_EQ(ErrorBody::decode(r).code, ErrorCode::OversizedFrame);
  EXPECT_EQ(client.read_raw().status, ReadStatus::Eof);
  server.stop();
}

TEST(ServiceServer, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  ExperimentServer server(base_options("truncated"));
  server.start();
  {
    ServiceClient client(server.socket_path());
    const std::vector<std::uint8_t> partial = {'Q', 'D', 'C'};  // 3 of 12
    ASSERT_TRUE(client.send_raw(partial));
    client.close();  // hang up mid-header
  }
  ServiceClient fresh(server.socket_path());
  EXPECT_EQ(fresh.submit(census_spec(8)).error, ErrorCode::None);
  server.stop();
}

TEST(ServiceServer, ResponseTypeFrameIsRejectedAsUnknown) {
  ExperimentServer server(base_options("resptype"));
  server.start();
  ServiceClient client(server.socket_path());
  ASSERT_TRUE(
      client.send_raw(encode_frame(MessageType::SubmitResponse, {})));
  const ReadFrameResult answer = client.read_raw();
  ASSERT_EQ(answer.status, ReadStatus::Ok);
  WireReader r(answer.payload);
  EXPECT_EQ(ErrorBody::decode(r).code, ErrorCode::UnknownMessageType);
  server.stop();
}

TEST(ServiceServer, MalformedPayloadKeepsConnectionUsable) {
  ExperimentServer server(base_options("badpayload"));
  server.start();
  ServiceClient client(server.socket_path());

  // A SubmitRequest whose payload is 3 junk bytes: the frame parses, the
  // payload does not — the answer is MalformedPayload and the connection
  // stays up (frame boundaries are intact).
  ASSERT_TRUE(
      client.send_raw(encode_frame(MessageType::SubmitRequest, {1, 2, 3})));
  const ReadFrameResult answer = client.read_raw();
  ASSERT_EQ(answer.status, ReadStatus::Ok);
  WireReader r(answer.payload);
  EXPECT_EQ(ErrorBody::decode(r).code, ErrorCode::MalformedPayload);

  EXPECT_EQ(client.admin().error, ErrorCode::None);  // same connection
  server.stop();
}

TEST(ServiceServer, BadJobSpecNamesTheRule) {
  ExperimentServer server(base_options("badspec"));
  server.start();
  ServiceClient client(server.socket_path());
  JobSpec spec = census_spec(8);
  spec.gamma = 3;  // unused by path: violates canonicalization
  const SubmitResult r = client.submit(spec);
  EXPECT_EQ(r.error, ErrorCode::BadJobSpec);
  EXPECT_FALSE(r.error_message.empty());
  server.stop();
}

TEST(ServiceServer, UnknownJobOnPollAndCancel) {
  ExperimentServer server(base_options("unknownjob"));
  server.start();
  ServiceClient client(server.socket_path());
  EXPECT_EQ(client.poll(424242).error, ErrorCode::UnknownJob);
  EXPECT_EQ(client.cancel(424242).error, ErrorCode::UnknownJob);
  server.stop();
}

TEST(ServiceServer, ClientDisconnectMidJobDoesNotLoseTheResult) {
  ExperimentServer server(base_options("disconnect"));
  server.start();

  std::uint64_t id = 0;
  {
    ServiceClient client(server.socket_path());
    const SubmitResult r =
        client.submit(slow_spec(), SubmitOptions{.wait = false});
    ASSERT_EQ(r.error, ErrorCode::None);
    id = r.status.job_id;
    ASSERT_NE(id, 0u);
  }  // disconnect while the job is queued or running

  ServiceClient other(server.socket_path());
  const JobStatus status = wait_until_terminal(other, id);
  EXPECT_EQ(status.state, JobState::Done);
  EXPECT_FALSE(status.result.empty());
  server.stop();
}

TEST(ServiceServer, QueueFullBackpressureOverTheWire) {
  ServerOptions options = base_options("queuefull");
  options.queue_capacity = 1;
  ExperimentServer server(options);
  server.start();
  ServiceClient client(server.socket_path());

  // Occupy the single worker...
  const SubmitResult running =
      client.submit(slow_spec(1), SubmitOptions{.wait = false});
  ASSERT_EQ(running.error, ErrorCode::None);
  ASSERT_EQ(wait_until_running(client, running.status.job_id),
            JobState::Running);
  // ...fill the one queue slot...
  const SubmitResult queued =
      client.submit(slow_spec(2), SubmitOptions{.wait = false});
  ASSERT_EQ(queued.error, ErrorCode::None);
  // ...and the next submit must bounce, immediately and explicitly.
  const SubmitResult bounced =
      client.submit(slow_spec(3), SubmitOptions{.wait = false});
  EXPECT_EQ(bounced.error, ErrorCode::QueueFull);

  const AdminResult admin = client.admin();
  ASSERT_EQ(admin.error, ErrorCode::None);
  EXPECT_EQ(admin.stats.queue_capacity, 1u);
  server.stop();
}

TEST(ServiceServer, CancelQueuedJobOverTheWire) {
  ServerOptions options = base_options("cancel");
  options.queue_capacity = 4;
  ExperimentServer server(options);
  server.start();
  ServiceClient client(server.socket_path());

  const SubmitResult running =
      client.submit(slow_spec(1), SubmitOptions{.wait = false});
  ASSERT_EQ(running.error, ErrorCode::None);
  ASSERT_EQ(wait_until_running(client, running.status.job_id),
            JobState::Running);
  const SubmitResult queued =
      client.submit(slow_spec(2), SubmitOptions{.wait = false});
  ASSERT_EQ(queued.error, ErrorCode::None);

  // Queued: cancellable. Running: refused with NotCancellable.
  EXPECT_EQ(client.cancel(queued.status.job_id).error, ErrorCode::None);
  EXPECT_EQ(client.poll(queued.status.job_id).status.state,
            JobState::Cancelled);
  EXPECT_EQ(client.cancel(running.status.job_id).error,
            ErrorCode::NotCancellable);
  server.stop();
}

// The acceptance bar from the experiment pipeline: concurrent clients
// must observe exactly the same per-job results as a serial client — the
// service adds scheduling, never entropy.
TEST(ServiceServer, FourConcurrentClientsMatchSerialResults) {
  std::vector<JobSpec> specs;
  specs.push_back(census_spec(16));
  specs.push_back(census_spec(33));
  {
    JobSpec s;
    s.topology = TopologyKind::Cycle;
    s.algorithm = AlgorithmKind::Leader;
    s.nodes = 24;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.topology = TopologyKind::Tree;
    s.algorithm = AlgorithmKind::Census;
    s.nodes = 15;
    s.arity = 2;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.topology = TopologyKind::Gnm;
    s.algorithm = AlgorithmKind::Mst;
    s.nodes = 24;
    s.edges = 48;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.topology = TopologyKind::LbNetwork;
    s.algorithm = AlgorithmKind::Census;
    s.gamma = 2;
    s.length = 5;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.topology = TopologyKind::Path;
    s.algorithm = AlgorithmKind::Mst;
    s.nodes = 20;
    specs.push_back(s);
  }
  specs.push_back(census_spec(48));

  // Serial reference.
  std::vector<std::vector<std::uint8_t>> serial(specs.size());
  {
    ExperimentServer server(base_options("serialref"));
    server.start();
    ServiceClient client(server.socket_path());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const SubmitResult r = client.submit(specs[i]);
      ASSERT_EQ(r.error, ErrorCode::None) << r.error_message;
      ASSERT_EQ(r.status.state, JobState::Done);
      serial[i] = r.status.result;
    }
    server.stop();
  }

  // Four concurrent clients, two specs each, on a fresh (cold) server.
  ServerOptions options = base_options("concurrent");
  options.workers = 2;
  ExperimentServer server(options);
  server.start();
  std::vector<std::vector<std::uint8_t>> concurrent(specs.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      ServiceClient client(server.socket_path());
      for (std::size_t i = static_cast<std::size_t>(t); i < specs.size();
           i += 4) {
        const SubmitResult r = client.submit(specs[i]);
        ASSERT_EQ(r.error, ErrorCode::None) << r.error_message;
        ASSERT_EQ(r.status.state, JobState::Done);
        concurrent[i] = r.status.result;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "spec " << i;
  }
  server.stop();
}

// Counter consistency under concurrent clients hammering one spec: the
// admin invariants must hold exactly, not approximately (TSan watches
// the synchronization).
TEST(ServiceServer, AdminCountersConsistentUnderConcurrentClients) {
  ServerOptions options = base_options("counters");
  options.workers = 2;
  options.queue_capacity = 64;
  ExperimentServer server(options);
  server.start();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  constexpr int kSubmits = kThreads * kPerThread;
  // kThreads concurrent clients submit the same spec kPerThread times
  // each; returns how many submits failed, or (with must_hit) were not
  // answered from the cache.
  const auto submit_concurrently = [&](bool must_hit) {
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        ServiceClient client(server.socket_path());
        for (int i = 0; i < kPerThread; ++i) {
          const SubmitResult r = client.submit(census_spec(40));
          if (r.error != ErrorCode::None ||
              r.status.state != JobState::Done ||
              (must_hit && !r.status.cached)) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    return failures.load();
  };

  // Cold phase: concurrent misses race to fill the cache.
  EXPECT_EQ(submit_concurrently(/*must_hit=*/false), 0);

  ServiceClient client(server.socket_path());
  const AdminResult admin = client.admin();
  ASSERT_EQ(admin.error, ErrorCode::None);
  const AdminStats& s = admin.stats;
  EXPECT_EQ(s.jobs_submitted, kSubmits);
  EXPECT_EQ(s.cache_hits + s.cache_misses, kSubmits);
  // Every miss was queued and executed exactly once.
  EXPECT_EQ(s.jobs_completed, s.cache_misses);
  EXPECT_GE(s.cache_hits, 1u);  // the repeats did hit
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.jobs_failed, 0u);

  // Warm phase: the spec is cached now, so the same concurrent load is
  // served from the cache alone: every submit is a hit, none is a miss,
  // and nothing more executes.
  EXPECT_EQ(submit_concurrently(/*must_hit=*/true), 0);
  const AdminResult warm = client.admin();
  ASSERT_EQ(warm.error, ErrorCode::None);
  EXPECT_EQ(warm.stats.jobs_submitted, s.jobs_submitted + kSubmits);
  EXPECT_EQ(warm.stats.cache_misses, s.cache_misses);
  EXPECT_EQ(warm.stats.cache_hits, s.cache_hits + kSubmits);
  EXPECT_EQ(warm.stats.jobs_completed, s.jobs_completed);
  EXPECT_EQ(warm.stats.queue_depth, 0u);
  EXPECT_EQ(warm.stats.in_flight, 0u);
  server.stop();
}

TEST(ServiceServer, DrainShutdownCompletesQueuedJobs) {
  ServerOptions options = base_options("drain");
  ExperimentServer server(options);
  server.start();
  ServiceClient client(server.socket_path());

  const SubmitResult a =
      client.submit(slow_spec(1), SubmitOptions{.wait = false});
  ASSERT_EQ(a.error, ErrorCode::None);
  ASSERT_EQ(wait_until_running(client, a.status.job_id), JobState::Running);
  const SubmitResult b =
      client.submit(slow_spec(2), SubmitOptions{.wait = false});
  ASSERT_EQ(b.error, ErrorCode::None);

  const ShutdownResult down = client.shutdown_server(/*drain=*/true);
  ASSERT_EQ(down.error, ErrorCode::None);
  EXPECT_TRUE(down.drain);
  // New submits are refused the moment shutdown is requested.
  EXPECT_EQ(client.submit(census_spec(8)).error, ErrorCode::Draining);

  server.wait();
  server.stop();
  const AdminStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);  // both jobs ran to completion
  EXPECT_EQ(stats.jobs_cancelled, 0u);
}

TEST(ServiceServer, DirectStopCancelsQueuedJobs) {
  ServerOptions options = base_options("hardstop");
  ExperimentServer server(options);
  server.start();
  ServiceClient client(server.socket_path());

  const SubmitResult a =
      client.submit(slow_spec(1), SubmitOptions{.wait = false});
  ASSERT_EQ(a.error, ErrorCode::None);
  ASSERT_EQ(wait_until_running(client, a.status.job_id), JobState::Running);
  const SubmitResult b =
      client.submit(slow_spec(2), SubmitOptions{.wait = false});
  ASSERT_EQ(b.error, ErrorCode::None);

  server.stop();  // non-drain: in-flight finishes, queued is cancelled
  const AdminStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_cancelled, 1u);
}

}  // namespace
}  // namespace qdc::service
