// service_mix: an in-process service::ExperimentServer (4 workers) on a
// unix socket, with a steady-clock tick supplied by the benchmark, driven
// by service::ServiceClients in the same process over <= 4 connections:
//
//  * closed loops: the 4 connections submit fresh specs back to back (the
//    server's capacity); then one connection submits fresh specs, and then
//    cache hits, back to back (the miss and the hit round trip);
//  * open loop: seeded Poisson arrivals at kOfferedRate requests/s, each
//    timed from its due time. Half are fresh specs (distinct shared_seed,
//    so cache misses: census, leader or mst over path, tree, gnm or
//    lb_network, n = 64..256, in a 20-class mix), half repeat a hot set of
//    one spec per class pre-warmed in set-up (cache hits). One request at
//    a time per connection: a due request that finds every connection
//    busy waits, and the wait counts.
//
// The closed loops run in kRounds rounds and the open loop in segments
// between them, so every figure samples the whole run.
//
// Why: this is the submit -> result round trip. Hits exercise only the
// wire, socket and cache path; misses add the queue and the executor
// (dist on the engine), so a change to either half shows on its own
// metric. quantum and the million-node engine are bypassed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/lb_topology.hpp"
#include "service/client.hpp"
#include "service/executor.hpp"
#include "service/job_spec.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace qdc::service;

constexpr int kWorkers = 4;
constexpr int kConnections = 4;
/// Offered open-loop rate, calibrated once on a 4-core host well under
/// the fresh-spec capacity the closed loop measures there, and pinned: it
/// is part of the workload, never derived per run.
constexpr double kOfferedRate = 200.0;
constexpr double kFreshShare = 0.5;
/// A p99 needs >= 1000 samples per class, so at least this many requests
/// of each class run whatever --seconds says.
constexpr int kMinPerClass = 1000;
/// Closed loops, in requests per second of --seconds: fresh specs on every
/// connection (the capacity), then on one connection fresh specs and cache
/// hits (the two round trips). Together they take about 0.5 of --seconds
/// on a 4-vCPU host.
constexpr int kCapacityJobsPerSecond = 100;
constexpr int kFreshTripsPerSecond = 120;
constexpr int kHitTripsPerSecond = 6000;
/// The closed loops run in this many rounds, with a segment of the open
/// loop between two rounds, so each loop samples the whole run: a serial
/// job's time follows the speed of the core it runs on, and on a shared
/// host that changes for seconds at a time.
constexpr int kRounds = 5;
constexpr std::size_t kHitChunk = 1000;  // hit responses held at a time
constexpr double kOpenShare = 0.7;        // of --seconds
constexpr int kWarmupRequests = 100;
constexpr int kSampleChecks = 16;  // fresh results re-executed locally
constexpr auto kSpinWindow = std::chrono::microseconds(500);

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One class of the spec mix. Sizes keep a job at about 0.2..9 ms.
struct SpecClass {
  TopologyKind topology;
  AlgorithmKind algorithm;
  std::uint32_t nodes = 0;        // path, tree, gnm
  std::uint32_t arity = 0;        // tree
  std::uint32_t edge_factor = 0;  // gnm: edges = nodes * edge_factor
  std::uint32_t gamma = 0;        // lb_network
  std::uint32_t length = 0;       // lb_network
};

using TK = TopologyKind;
using AK = AlgorithmKind;
/// The mix: census, leader or mst over path, tree, gnm or lb_network;
/// census and leader four times each per topology, mst once.
constexpr SpecClass kMix[] = {
    {TK::Path, AK::Census, 64},
    {TK::Path, AK::Census, 128},
    {TK::Path, AK::Leader, 64},
    {TK::Path, AK::Leader, 128},
    {TK::Path, AK::Mst, 64},
    {TK::Tree, AK::Census, 128, 3},
    {TK::Tree, AK::Census, 256, 2},
    {TK::Tree, AK::Leader, 128, 4},
    {TK::Tree, AK::Leader, 256, 3},
    {TK::Tree, AK::Mst, 64, 2},
    {TK::Gnm, AK::Census, 64, 0, 3},
    {TK::Gnm, AK::Census, 128, 0, 2},
    {TK::Gnm, AK::Leader, 64, 0, 2},
    {TK::Gnm, AK::Leader, 128, 0, 3},
    {TK::Gnm, AK::Mst, 64, 0, 2},
    {TK::LbNetwork, AK::Census, 0, 0, 0, 2, 33},
    {TK::LbNetwork, AK::Census, 0, 0, 0, 3, 33},
    {TK::LbNetwork, AK::Leader, 0, 0, 0, 2, 33},
    {TK::LbNetwork, AK::Leader, 0, 0, 0, 3, 33},
    {TK::LbNetwork, AK::Mst, 0, 0, 0, 2, 17},
};
constexpr int kClasses = static_cast<int>(std::size(kMix));

/// Seeded class sequence in which every block of kClasses draws holds each
/// class once: every run serves the same composition, so a median over
/// the mix does not jump between the modes of its job-time distribution.
class ClassDeck {
 public:
  explicit ClassDeck(std::uint64_t seed) : rng_(seed) {}
  int next() {
    if (pos_ == order_.size()) {
      order_.resize(kClasses);
      for (int k = 0; k < kClasses; ++k) order_[static_cast<std::size_t>(k)] = k;
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  qdc::Rng rng_;
  std::vector<int> order_;
  std::size_t pos_ = 0;
};

/// A spec of class `c`; `seed` becomes its shared_seed (and the gnm
/// topology seed), so no two specs of a run share a cache key.
JobSpec make_spec(const SpecClass& c, std::uint64_t seed) {
  JobSpec s;
  s.topology = c.topology;
  s.algorithm = c.algorithm;
  s.bandwidth = 8;
  s.shared_seed = seed;
  s.nodes = c.nodes;
  s.arity = c.arity;
  s.edges = c.nodes * c.edge_factor;
  s.gamma = c.gamma;
  s.length = c.length;
  if (c.topology == TK::Gnm) s.topology_seed = qdc::splitmix64(seed) | 1;
  return s;
}

/// Index in kMix of the class `s` was made from, or -1.
int class_of(const JobSpec& s) {
  for (int k = 0; k < kClasses; ++k) {
    if (make_spec(kMix[k], s.shared_seed) == s) return k;
  }
  return -1;
}

/// Node and edge count of the spec's topology, from the same views the
/// executor instantiates.
std::pair<std::int64_t, std::int64_t> spec_shape(const JobSpec& s) {
  switch (s.topology) {
    case TopologyKind::Path:
    case TopologyKind::Tree:
      return {s.nodes, s.nodes - 1};
    case TopologyKind::Cycle:
      return {s.nodes, s.nodes};
    case TopologyKind::Gnm:
      return {s.nodes, s.edges};
    case TopologyKind::LbNetwork: {
      const qdc::core::LbTopologyView v(static_cast<int>(s.gamma),
                                        static_cast<int>(s.length));
      return {v.node_count(), v.edge_count()};
    }
  }
  return {0, 0};
}

/// Empty when `payload` is a well-formed result that fits `spec`: the
/// algorithm and shape match, census counts the whole network, a leader is
/// a real node, and mst returns one spanning tree of unit weights.
std::string check_result(const JobSpec& spec,
                         const std::vector<std::uint8_t>& payload) {
  ResultSummary r;
  try {
    r = decode_result(payload);
  } catch (const std::exception& e) {
    return std::string("decode_result: ") + e.what();
  }
  const auto [n, m] = spec_shape(spec);
  if (r.algorithm != spec.algorithm) return "algorithm differs";
  if (r.nodes != n || r.edges != m) return "shape differs";
  switch (spec.algorithm) {
    case AlgorithmKind::Census:
      if (r.value1 != n || r.value2 != m) return "census counts differ";
      if (r.value0 < 0 || r.value0 >= n) return "census leader out of range";
      break;
    case AlgorithmKind::Leader:
      if (r.value0 < 0 || r.value0 >= n) return "leader out of range";
      break;
    case AlgorithmKind::Mst: {
      double weight = 0.0;
      std::memcpy(&weight, &r.value2, sizeof weight);
      if (r.value0 != n - 1 || r.value1 != 1 ||
          weight != static_cast<double>(n - 1)) {
        return "mst is not one unit-weight spanning tree";
      }
      break;
    }
  }
  return {};
}

struct Sample {
  bool fresh = false;
  double latency_ms = 0.0;  // due -> result
  double client_ms = 0.0;   // send -> result
  double late_ms = 0.0;     // generator's own lateness at send
  SubmitResult result;
};

struct OpenLoopPlan {
  std::vector<double> due_s;
  std::vector<JobSpec> specs;
  std::vector<int> hot;  // hot-set index, or -1 for a fresh spec
};

OpenLoopPlan plan_open_loop(std::uint64_t seed, std::uint64_t stream,
                            double seconds, const std::vector<JobSpec>& hot) {
  OpenLoopPlan plan;
  qdc::Rng rng(derive_seed(seed, stream));
  ClassDeck fresh(rng());
  ClassDeck cached(rng());
  const int floor_total = static_cast<int>(kMinPerClass / kFreshShare * 1.1);
  const int total = std::max(floor_total,
                             static_cast<int>(kOfferedRate * seconds));
  double t = 0.0;
  for (int i = 0; i < total; ++i) {
    t += -std::log(1.0 - qdc::uniform_real(rng)) / kOfferedRate;
    plan.due_s.push_back(t);
    if (qdc::uniform_real(rng) < kFreshShare) {
      plan.specs.push_back(make_spec(
          kMix[fresh.next()],
          derive_seed(seed, stream * 1000003 + static_cast<std::uint64_t>(i))));
      plan.hot.push_back(-1);
    } else {
      const int k = cached.next();
      plan.specs.push_back(hot[static_cast<std::size_t>(k)]);
      plan.hot.push_back(k);
    }
  }
  return plan;
}

/// `count` fresh specs dealt from the class deck of `stream`.
std::vector<JobSpec> fresh_specs(std::uint64_t seed, std::uint64_t stream,
                                 std::size_t count) {
  std::vector<JobSpec> specs;
  ClassDeck deck(derive_seed(seed, stream));
  for (std::size_t i = 0; i < count; ++i) {
    specs.push_back(
        make_spec(kMix[deck.next()], derive_seed(seed, stream * 1000003 + i)));
  }
  return specs;
}

/// `count` hot-set indices dealt from the class deck of `stream`.
std::vector<int> hot_picks(std::uint64_t seed, std::uint64_t stream,
                           std::size_t count) {
  std::vector<int> picks;
  ClassDeck deck(derive_seed(seed, stream));
  for (std::size_t i = 0; i < count; ++i) picks.push_back(deck.next());
  return picks;
}

class Harness {
 public:
  Harness(const std::string& socket, std::uint64_t seed)
      : socket_(socket), seed_(seed) {
    ServerOptions o;
    o.socket_path = socket;
    o.workers = kWorkers;
    o.queue_capacity = 1024;
    o.cache_bytes = 64ull << 20;
    o.tick = steady_us;
    server_ = std::make_unique<ExperimentServer>(o);
    {
      Span span("service.start");
      server_->start();
    }
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<ServiceClient>(socket));
    }
  }

  ~Harness() {
    clients_.clear();
    server_->stop();
    ::unlink(socket_.c_str());
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Executes every hot spec once; their payloads are what later hits must
  /// return byte for byte.
  void warm_hot_set(const std::vector<JobSpec>& hot, Report& report) {
    payloads_.clear();
    for (const JobSpec& spec : hot) {
      Span span("service.submit", request_ids_++);
      const SubmitResult r = clients_[0]->submit(spec);
      const bool ok = r.error == ErrorCode::None &&
                      r.status.state == JobState::Done &&
                      check_result(spec, r.status.result).empty();
      report.checks.op(ok, "hot-set warm-up: " + spec.summary() + " " +
                               r.error_message);
      payloads_.push_back(r.status.result);
    }
  }

  /// Runs the open loop; samples are indexed like the plan.
  std::vector<Sample> open_loop(const OpenLoopPlan& plan) {
    std::vector<Sample> samples(plan.specs.size());
    std::atomic<std::size_t> next{0};
    Span loop_span("loadgen.open_loop");
    const int parent = loop_span.id();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ServiceClient& client = *clients_[static_cast<std::size_t>(c)];
        for (std::size_t i = next++; i < plan.specs.size(); i = next++) {
          const Clock::time_point due =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan.due_s[i]));
          const Clock::time_point picked = Clock::now();
          // Sleep to just before the due time, then spin: a sleeping
          // thread on an idle core can wake milliseconds late, which
          // would be the generator's lateness, not the server's.
          std::this_thread::sleep_until(due - kSpinWindow);
          while (Clock::now() < due) {
          }
          Span span("service.submit", request_ids_++, parent);
          const Clock::time_point sent = Clock::now();
          SubmitResult r = client.submit(plan.specs[i]);
          const Clock::time_point done = Clock::now();
          Sample& s = samples[i];
          s.fresh = plan.hot[i] < 0;
          s.latency_ms = 1e3 * seconds_between(due, done);
          s.client_ms = 1e3 * seconds_between(sent, done);
          s.late_ms = 1e3 * seconds_between(std::max(due, picked), sent);
          s.result = std::move(r);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return samples;
  }

  struct Closed {
    double seconds = 0.0;
    double compute_s = 0.0;
    std::vector<JobSpec> specs;
    std::vector<int> hot;  // hot-set index, or -1 for a fresh spec
    std::vector<SubmitResult> results;
    std::vector<double> latency_ms;  // send -> result, per request
  };

  /// Closed loop: `connections` connections submit the specs back to
  /// back, each taking the next one not yet sent, until all are done.
  Closed closed_loop(std::vector<JobSpec> specs, std::vector<int> hot,
                     int connections) {
    Closed out;
    out.specs = std::move(specs);
    out.hot = std::move(hot);
    out.results.resize(out.specs.size());
    out.latency_ms.resize(out.specs.size());
    std::atomic<std::size_t> next{0};
    Span loop_span("loadgen.closed_loop");
    const int parent = loop_span.id();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        ServiceClient& client = *clients_[static_cast<std::size_t>(c)];
        for (std::size_t i = next++; i < out.specs.size(); i = next++) {
          Span span("service.submit", request_ids_++, parent);
          const Clock::time_point sent = Clock::now();
          out.results[i] = client.submit(out.specs[i]);
          out.latency_ms[i] = 1e3 * seconds_between(sent, Clock::now());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    out.seconds = seconds_between(t0, Clock::now());
    for (const SubmitResult& r : out.results) {
      out.compute_s += 1e-6 * static_cast<double>(r.status.compute_us);
    }
    return out;
  }

  AdminStats admin() { return clients_[0]->admin().stats; }
  const std::vector<std::vector<std::uint8_t>>& payloads() const {
    return payloads_;
  }

 private:
  std::string socket_;
  std::uint64_t seed_;
  std::unique_ptr<ExperimentServer> server_;
  std::vector<std::unique_ptr<ServiceClient>> clients_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::atomic<long> request_ids_{0};  // one per request, for the trace
};

/// Empty when `r` is right for a request of `spec`: a hit (`hot` >= 0)
/// comes from the cache byte-identical to its warm-up payload, a fresh
/// request misses the cache and its result decodes and fits the spec.
std::string check_response(const JobSpec& spec, int hot,
                           const SubmitResult& r, const Harness& h) {
  if (r.error != ErrorCode::None || r.status.state != JobState::Done) {
    return "refused or failed: " + r.error_message;
  }
  if (hot >= 0) {
    if (!r.status.cached) return "hot-set request missed the cache";
    if (r.status.result != h.payloads()[static_cast<std::size_t>(hot)]) {
      return "cache hit differs from warm-up";
    }
    return {};
  }
  if (r.status.cached) return "fresh request hit the cache";
  return check_result(spec, r.status.result);
}

/// Correctness of one open loop: every response is checked, and a seeded
/// sample of fresh results matches a local execute_job byte for byte.
void check_open_loop(const OpenLoopPlan& plan,
                     const std::vector<Sample>& samples, const Harness& h,
                     std::uint64_t sample_seed, Report& report) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::string why =
        check_response(plan.specs[i], plan.hot[i], samples[i].result, h);
    report.checks.op(why.empty(), "open-loop request " + std::to_string(i) +
                                      " (" + plan.specs[i].summary() +
                                      "): " + why);
  }
  qdc::Rng rng(sample_seed);
  for (int k = 0; k < kSampleChecks; ++k) {
    std::size_t i = 0;
    do {
      i = static_cast<std::size_t>(
          qdc::uniform_int(rng, 0, static_cast<std::int64_t>(samples.size()) - 1));
    } while (!samples[i].fresh);
    report.checks.op(execute_job(plan.specs[i]) == samples[i].result.status.result,
                     "fresh result differs from a local execute_job: " +
                         plan.specs[i].summary());
  }
}

void check_closed_loop(const Harness::Closed& c, const Harness& h,
                       Report& report) {
  for (std::size_t i = 0; i < c.results.size(); ++i) {
    const std::string why =
        check_response(c.specs[i], c.hot[i], c.results[i], h);
    report.checks.op(why.empty(), "closed-loop request " + std::to_string(i) +
                                      " (" + c.specs[i].summary() +
                                      "): " + why);
  }
}

std::vector<double> pick(const std::vector<Sample>& samples, bool fresh,
                         double Sample::*field) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.fresh == fresh) out.push_back(s.*field);
  }
  return out;
}

struct Measured {
  Harness::Closed capacity;     // fresh specs, every connection
  Harness::Closed fresh_trips;  // fresh specs, one connection
  std::vector<double> hit_trip_ms;  // cache hits, one connection
  OpenLoopPlan plan;
  std::vector<Sample> samples;
  // AdminStats cache counters, summed over the open-loop segments.
  std::uint64_t open_hits = 0;
  std::uint64_t open_misses = 0;
};

/// Adds the requests and times of one closed-loop round to the run's.
void append(Harness::Closed& into, Harness::Closed from) {
  into.seconds += from.seconds;
  into.compute_s += from.compute_s;
  const auto move_to = [](auto& to, auto& v) {
    to.insert(to.end(), std::make_move_iterator(v.begin()),
              std::make_move_iterator(v.end()));
  };
  move_to(into.specs, from.specs);
  move_to(into.hot, from.hot);
  move_to(into.results, from.results);
  move_to(into.latency_ms, from.latency_ms);
}

/// Part `k` of `parts` of the plan, its due times counted from the end of
/// the part before.
OpenLoopPlan segment(const OpenLoopPlan& plan, int k, int parts) {
  const std::size_t n = plan.specs.size();
  const std::size_t begin = n * static_cast<std::size_t>(k) /
                            static_cast<std::size_t>(parts);
  const std::size_t end = n * static_cast<std::size_t>(k + 1) /
                          static_cast<std::size_t>(parts);
  const double offset = begin == 0 ? 0.0 : plan.due_s[begin - 1];
  OpenLoopPlan part;
  for (std::size_t i = begin; i < end; ++i) {
    part.due_s.push_back(plan.due_s[i] - offset);
    part.specs.push_back(plan.specs[i]);
    part.hot.push_back(plan.hot[i]);
  }
  return part;
}

Measured measure(Harness& h, std::uint64_t seed, double seconds,
                 const std::vector<JobSpec>& hot, std::uint64_t stream,
                 Report& report) {
  const auto count = [seconds](int per_second) {
    return static_cast<std::size_t>(per_second * seconds / kRounds);
  };
  const auto fresh = [&](std::uint64_t s, std::size_t n, int connections) {
    return h.closed_loop(fresh_specs(seed, s, n), std::vector<int>(n, -1),
                         connections);
  };
  Measured m;
  m.plan = plan_open_loop(seed, stream, seconds * kOpenShare, hot);
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t s = stream + 2 + 3 * static_cast<std::uint64_t>(r);
    append(m.capacity, fresh(s, count(kCapacityJobsPerSecond), kConnections));
    append(m.fresh_trips, fresh(s + 1, count(kFreshTripsPerSecond), 1));
    // Cache hits in chunks (see kHitChunk); only one chunk's responses are
    // held at a time.
    const std::vector<int> picks =
        hot_picks(seed, s + 2, count(kHitTripsPerSecond));
    for (std::size_t first = 0; first < picks.size(); first += kHitChunk) {
      std::vector<int> chunk(
          picks.begin() + static_cast<std::ptrdiff_t>(first),
          picks.begin() + static_cast<std::ptrdiff_t>(
                              std::min(picks.size(), first + kHitChunk)));
      std::vector<JobSpec> specs;
      for (const int k : chunk) {
        specs.push_back(hot[static_cast<std::size_t>(k)]);
      }
      const Harness::Closed c =
          h.closed_loop(std::move(specs), std::move(chunk), 1);
      check_closed_loop(c, h, report);
      m.hit_trip_ms.insert(m.hit_trip_ms.end(), c.latency_ms.begin(),
                           c.latency_ms.end());
    }
    if (r + 1 == kRounds) break;
    const AdminStats before = h.admin();
    std::vector<Sample> part = h.open_loop(segment(m.plan, r, kRounds - 1));
    const AdminStats after = h.admin();
    m.open_hits += after.cache_hits - before.cache_hits;
    m.open_misses += after.cache_misses - before.cache_misses;
    m.samples.insert(m.samples.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
  }
  check_closed_loop(m.capacity, h, report);
  check_closed_loop(m.fresh_trips, h, report);
  check_open_loop(m.plan, m.samples, h, derive_seed(seed, stream + 1), report);
  return m;
}

/// One typical fresh round trip: the median of each class of the mix,
/// averaged over the classes. Medians drop the bursts of a shared host;
/// weighting every class alike keeps the figure off the jumps a median
/// over the whole mix makes between the modes of its job-time spread.
double class_median_ms(const Harness::Closed& c) {
  std::vector<std::vector<double>> by_class(kClasses);
  for (std::size_t i = 0; i < c.specs.size(); ++i) {
    by_class.at(static_cast<std::size_t>(class_of(c.specs[i])))
        .push_back(c.latency_ms[i]);
  }
  double sum = 0.0;
  for (const std::vector<double>& v : by_class) sum += median(v);
  return sum / kClasses;
}

void add_e2e(std::vector<Metric>& out, const Measured& m) {
  const auto fresh = pick(m.samples, true, &Sample::latency_ms);
  const auto cached = pick(m.samples, false, &Sample::latency_ms);
  const auto nf = static_cast<long>(fresh.size());
  const auto nc = static_cast<long>(cached.size());
  out.push_back({"fresh_p50_ms", quantile(fresh, 0.5), "ms", nf,
                 "open loop, due -> result"});
  out.push_back({"fresh_p99_ms", quantile(fresh, 0.99), "ms", nf,
                 "open loop, due -> result"});
  out.push_back({"cached_p50_ms", quantile(cached, 0.5), "ms", nc,
                 "open loop, due -> result"});
  out.push_back({"cached_p99_ms", quantile(cached, 0.99), "ms", nc,
                 "open loop, due -> result"});
  const auto jobs = static_cast<long>(m.capacity.specs.size());
  out.push_back({"capacity_jobs_per_s",
                 static_cast<double>(jobs) / m.capacity.seconds, "jobs/s",
                 jobs, "closed loop, 4 connections, fresh specs"});
  out.push_back({"fresh_compute_ms",
                 1e3 * m.capacity.compute_s / static_cast<double>(jobs), "ms",
                 jobs,
                 "closed loop, 4 connections: mean compute_us per fresh job, "
                 "as each JobStatus reports it"});
  out.push_back({"fresh_rtt_ms", class_median_ms(m.fresh_trips), "ms",
                 static_cast<long>(m.fresh_trips.specs.size()),
                 "closed loop, 1 connection, fresh specs: mean over the 20 "
                 "classes of each class's median send -> result"});
  out.push_back({"cached_rtt_ms", median(m.hit_trip_ms), "ms",
                 static_cast<long>(m.hit_trip_ms.size()),
                 "closed loop, 1 connection, cache hits: median send -> "
                 "result"});
}

}  // namespace

Report run_service_mix(const Options& options) {
  Report report;
  report.primary = "fresh_rtt_ms";
  report.secondary = "fresh_compute_ms";
  const std::string socket =
      options.scratch_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";

  // The hot set: one spec of every class, executed once per set-up.
  std::vector<JobSpec> hot;
  for (int k = 0; k < kClasses; ++k) {
    hot.push_back(make_spec(
        kMix[k], derive_seed(options.seed, 20 + static_cast<std::uint64_t>(k))));
  }

  std::unique_ptr<Harness> h;
  std::uint64_t stream = 100;  // a fresh input stream for every loop
  Measured last;
  run_phases(
      options, report,
      {.setup =
           [&] {
             h.reset();
             Span span("bench.setup");
             const Clock::time_point t0 = Clock::now();
             h = std::make_unique<Harness>(socket, options.seed);
             h->warm_hot_set(hot, report);
             const Harness::Closed warm_closed = h->closed_loop(
                 fresh_specs(options.seed, stream++, kWarmupRequests),
                 std::vector<int>(kWarmupRequests, -1), kConnections);
             OpenLoopPlan warm_plan =
                 plan_open_loop(options.seed, stream++, 0.0, hot);
             warm_plan.due_s.resize(kWarmupRequests);
             warm_plan.specs.resize(kWarmupRequests);
             warm_plan.hot.resize(kWarmupRequests);
             const std::vector<Sample> warm = h->open_loop(warm_plan);
             const double seconds = seconds_between(t0, Clock::now());
             check_closed_loop(warm_closed, *h, report);
             for (const Sample& s : warm) {
               report.checks.op(s.result.error == ErrorCode::None &&
                                    s.result.status.state == JobState::Done,
                                "warm-up request failed: " +
                                    s.result.error_message);
             }
             return seconds;
           },
       .setup_note = "server + connections + hot set + one warm-up "
                     "iteration (short closed and open loops)",
       .pass =
           [&](std::vector<Metric>& out) {
             last = measure(*h, options.seed, options.seconds, hot,
                            1000 * stream++, report);
             add_e2e(out, last);
           }});
  report.fact("service_mix.offered_rate_per_s", format_double(kOfferedRate));
  report.fact("service_mix.fresh_share", format_double(kFreshShare));
  report.fact("service_mix.open_loop_requests",
              std::to_string(last.samples.size()));

  if (options.trace) {
    const Measured& t = last;
    std::vector<double> execute;
    std::vector<double> queue_wait;
    for (const Sample& s : t.samples) {
      if (!s.fresh) continue;
      execute.push_back(1e-3 * static_cast<double>(s.result.status.compute_us));
      queue_wait.push_back(1e-3 * static_cast<double>(s.result.status.wall_us -
                                                      s.result.status.compute_us));
    }
    std::vector<double> transport;
    for (const Sample& s : t.samples) {
      if (s.fresh) continue;
      transport.push_back(s.client_ms -
                          1e-3 * static_cast<double>(s.result.status.wall_us));
    }
    const auto nf = static_cast<long>(execute.size());
    const auto nc = static_cast<long>(transport.size());
    report.layer("service.execute_ms.p50", quantile(execute, 0.5), "ms", nf,
                 "compute_us, fresh -> fresh_rtt_ms, fresh_p50_ms, "
                 "capacity_jobs_per_s");
    report.layer("service.execute_ms.p99", quantile(execute, 0.99), "ms", nf,
                 "-> fresh_p99_ms");
    report.layer("service.queue_wait_ms.p50", quantile(queue_wait, 0.5), "ms",
                 nf, "wall_us - compute_us, fresh -> fresh_p99_ms");
    report.layer("service.queue_wait_ms.p99", quantile(queue_wait, 0.99), "ms",
                 nf, "-> fresh_p99_ms");
    report.layer("service.transport_ms.p50", quantile(transport, 0.5), "ms", nc,
                 "client latency - wall_us, hits -> cached_rtt_ms, "
                 "cached_p50_ms");
    report.layer("service.transport_ms.p99", quantile(transport, 0.99), "ms",
                 nc, "-> cached_p99_ms");
    const double hits = static_cast<double>(t.open_hits);
    const double lookups = hits + static_cast<double>(t.open_misses);
    report.layer("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                 "ratio", static_cast<long>(lookups),
                 "AdminStats hits / lookups, open loop -> cached_*");
    report.layer("service.worker_busy_frac",
                 t.capacity.compute_s / (kWorkers * t.capacity.seconds),
                 "ratio", static_cast<long>(t.capacity.specs.size()),
                 "closed loop compute / (4 workers x wall) -> "
                 "capacity_jobs_per_s");
    std::vector<double> late;
    for (const Sample& s : t.samples) late.push_back(s.late_ms);
    report.layer("loadgen.late_ms_p99", quantile(late, 0.99), "ms",
                 static_cast<long>(late.size()),
                 "generator lateness at send; large values void the open loop");
  }
  return report;
}

}  // namespace perfbench
