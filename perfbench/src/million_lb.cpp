// million_lb: one audited congest::Network over core::LbTopologyView(1000,
// 1025) — n = 1,026,033, m = 2,557,633 — run at 4 engine threads with
// bandwidth 8, in both of the engine's modes:
//
//  * dense: a flood program in the bench_engine_scaling shape (every live
//    node folds its inbox, does fixed local work, sends on <= 2 ports);
//  * sparse: 16384 event-driven walkers, each a token forwarded on a
//    seeded, hash-chosen port, under RunOptions::frontier. Every 100-round
//    run is paired with a 1-round run of the same walkers; their
//    difference is 99 frontier rounds without the run's fixed costs
//    (auditor set-up, inbox reset, and round 0, which visits every node).
//
// Why: this is the one-Network::run-at-a-million-nodes case. The engine
// does almost all the work on a working set far beyond any cache, and the
// dense/sparse pair keeps a change to one round loop from winning one mode
// by losing the other. dist, quantum and service are bypassed.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "congest/network.hpp"
#include "congest/stats.hpp"
#include "core/lb_topology.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using qdc::congest::Incoming;
using qdc::congest::Network;
using qdc::congest::NetworkConfig;
using qdc::congest::NodeContext;
using qdc::congest::NodeId;
using qdc::congest::NodeProgram;
using qdc::congest::Payload;
using qdc::congest::RunOptions;
using qdc::congest::RunStats;

constexpr int kGamma = 1000;
constexpr int kLength = 1025;
constexpr int kBandwidth = 8;
constexpr int kThreads = 4;
constexpr int kDenseRounds = 6;  // the flood halts in round 6: 7 rounds
constexpr int kDenseWork = 16;   // hash iterations per node per round
constexpr int kPortCap = 2;
/// Enough walkers that their work, not the round's fixed cost of three
/// pool dispatches and the serial worklist build, sets a frontier round.
constexpr int kWalkers = 16384;
constexpr int kSparseRounds = 100;

/// Dense flood. `timed` turns on the per-instance accumulator the traced
/// 1-thread run reads (a span per on_round would be 7 million spans).
class FloodProgram final : public NodeProgram {
 public:
  FloodProgram(std::uint64_t init, bool timed) : acc_(init), timed_(timed) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    for (const Incoming& msg : inbox) {
      for (const std::int64_t f : msg.data) {
        acc_ = qdc::splitmix64(acc_ ^ static_cast<std::uint64_t>(f));
      }
    }
    for (int i = 0; i < kDenseWork; ++i) acc_ = qdc::splitmix64(acc_);
    if (ctx.round() >= kDenseRounds) {
      ctx.set_output(static_cast<std::int64_t>(acc_ & 0x7fffffff));
      ctx.halt();
    } else {
      const Payload out{static_cast<std::int64_t>(acc_ & 0xffff), ctx.round()};
      const int ports = std::min(ctx.degree(), kPortCap);
      for (int p = 0; p < ports; ++p) ctx.send(p, out);
    }
    if (timed_) busy_ += Clock::now() - t0;
  }

  Clock::duration busy() const { return busy_; }

 private:
  std::uint64_t acc_;
  bool timed_;
  Clock::duration busy_{};
};

/// Read-only walker inputs shared by every WalkerProgram.
struct WalkerSetup {
  std::uint64_t hash_seed = 0;
  std::vector<std::pair<NodeId, int>> starts;  // (node, walker), sorted
};

std::uint64_t walker_hash(std::uint64_t seed, int walker, int round) {
  return qdc::splitmix64(seed ^ (static_cast<std::uint64_t>(walker) << 32) ^
                         static_cast<std::uint64_t>(round));
}

/// Event-driven walker host: forwards every token it is handed on port
/// hash(seed, walker, round) mod degree, and remembers where it sent the
/// tokens of round `rounds - 1` so the end positions can be checked.
class WalkerProgram final : public NodeProgram {
 public:
  WalkerProgram(const WalkerSetup* setup, NodeId self, int rounds)
      : setup_(setup), rounds_(rounds) {
    auto it = std::lower_bound(setup->starts.begin(), setup->starts.end(),
                               std::make_pair(self, -1));
    for (; it != setup->starts.end() && it->first == self; ++it) {
      own_.push_back(it->second);
    }
  }

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0) {
      for (const int w : own_) forward(ctx, w);
      return;
    }
    ++calls_;
    for (const Incoming& msg : inbox) forward(ctx, static_cast<int>(msg.data[0]));
  }

  /// on_round calls after round 0 (which visits every node).
  long calls() const { return calls_; }
  /// Where walker `w` was sent in the last round, or -1.
  NodeId final_target(int w) const {
    for (const auto& [walker, to] : last_) {
      if (walker == w) return to;
    }
    return -1;
  }

 private:
  void forward(NodeContext& ctx, int w) {
    const int r = ctx.round();
    const int port = static_cast<int>(
        walker_hash(setup_->hash_seed, w, r) %
        static_cast<std::uint64_t>(ctx.degree()));
    ctx.send(port, {w, r});
    if (r == rounds_ - 1) last_.emplace_back(w, ctx.neighbor(port));
  }

  const WalkerSetup* setup_;
  int rounds_;
  std::vector<int> own_;
  std::vector<std::pair<int, NodeId>> last_;
  long calls_ = 0;
};

/// Central replay of every walk for a run of some number of rounds R.
struct WalkReplay {
  RunStats expect;
  std::vector<NodeId> before_last;  // position in round R-1
  std::vector<NodeId> end;          // position after round R-1
};

WalkReplay replay_walks(const qdc::core::LbTopologyView& view,
                        const WalkerSetup& walkers, int rounds) {
  WalkReplay out;
  // Each walker moves once per round and nobody halts.
  out.expect = {.rounds = rounds,
                .messages = std::int64_t{kWalkers} * rounds,
                .fields = std::int64_t{2} * kWalkers * rounds,
                .completed = false};
  out.before_last.assign(kWalkers, -1);
  out.end.assign(kWalkers, -1);
  for (const auto& [start, w] : walkers.starts) {
    NodeId pos = start;
    for (int r = 0; r < rounds; ++r) {
      const int port = static_cast<int>(
          walker_hash(walkers.hash_seed, w, r) %
          static_cast<std::uint64_t>(view.degree(pos)));
      if (r == rounds - 1) out.before_last[static_cast<std::size_t>(w)] = pos;
      pos = view.neighbor(pos, port);
    }
    out.end[static_cast<std::size_t>(w)] = pos;
  }
  return out;
}

struct Inputs {
  std::uint64_t flood_seed = 0;
  std::uint64_t shared_seed = 0;
  WalkerSetup walkers;
  RunStats dense_expect;
  WalkReplay sparse;  // kSparseRounds rounds
  WalkReplay first;   // 1 round
};

Inputs make_inputs(const qdc::core::LbTopologyView& view, std::uint64_t seed) {
  Inputs in;
  in.flood_seed = derive_seed(seed, 1);
  in.shared_seed = derive_seed(seed, 2);
  in.walkers.hash_seed = derive_seed(seed, 3);
  qdc::Rng rng(derive_seed(seed, 4));
  for (int w = 0; w < kWalkers; ++w) {
    const auto u = static_cast<NodeId>(
        qdc::uniform_int(rng, 0, view.node_count() - 1));
    in.walkers.starts.emplace_back(u, w);
  }
  std::sort(in.walkers.starts.begin(), in.walkers.starts.end());

  // Expected counts, derived from the topology alone: the flood sends on
  // min(degree, 2) ports in rounds 0..5 and halts in round 6.
  std::int64_t fanout = 0;
  for (NodeId u = 0; u < view.node_count(); ++u) {
    fanout += std::min(view.degree(u), kPortCap);
  }
  in.dense_expect = {.rounds = kDenseRounds + 1,
                     .messages = fanout * kDenseRounds,
                     .fields = 2 * fanout * kDenseRounds,
                     .completed = true};
  in.sparse = replay_walks(view, in.walkers, kSparseRounds);
  in.first = replay_walks(view, in.walkers, 1);
  return in;
}

std::string stats_text(const RunStats& s) {
  return "rounds=" + std::to_string(s.rounds) +
         " messages=" + std::to_string(s.messages) +
         " fields=" + std::to_string(s.fields);
}

struct RunResult {
  double seconds = 0.0;    // Network::run only
  double install_s = 0.0;  // the install before it
  RunStats stats;
};

/// The network plus everything that checks its runs. Every run is checked
/// against the counts derived from the topology; dense outputs must equal
/// the first dense run's (any thread count), walker end positions must
/// equal the central replay.
class Engine {
 public:
  Engine(const Inputs& in, Report& report) : in_(in), report_(report) {}

  void build(std::shared_ptr<const qdc::core::LbTopologyView> view) {
    Span span("congest.network_build");
    net_ = std::make_unique<Network>(
        std::move(view), NetworkConfig{.bandwidth = kBandwidth,
                                       .shared_seed = in_.shared_seed});
  }
  void reset() { net_.reset(); }
  Network& net() { return *net_; }

  RunResult dense(int threads, bool audit, bool timed_programs = false) {
    RunResult r;
    {
      Span span("congest.install");
      const Clock::time_point t0 = Clock::now();
      net_->install([this, timed_programs](NodeId u, const NodeContext&) {
        return std::make_unique<FloodProgram>(
            qdc::splitmix64(in_.flood_seed ^ static_cast<std::uint64_t>(u)),
            timed_programs);
      });
      r.install_s = seconds_between(t0, Clock::now());
    }
    r.stats = run({.max_rounds = kDenseRounds + 2,
                   .threads = threads,
                   .audit = audit},
                  &r.seconds);
    std::uint64_t fold = 0xcbf29ce484222325ULL;
    for (const std::int64_t v : net_->outputs()) {
      fold = qdc::splitmix64(fold ^ static_cast<std::uint64_t>(v));
    }
    if (dense_fold_ == 0) dense_fold_ = fold;
    report_.checks.op(r.stats == in_.dense_expect && fold == dense_fold_,
                      "dense run (threads=" + std::to_string(threads) +
                          "): " + stats_text(r.stats) + ", expected " +
                          stats_text(in_.dense_expect) +
                          (fold == dense_fold_ ? "" : "; outputs differ"));
    return r;
  }

  /// A frontier run of kSparseRounds rounds, or with `first_only` of
  /// round 0 alone.
  RunResult sparse(bool audit, bool first_only = false) {
    const WalkReplay& replay = first_only ? in_.first : in_.sparse;
    RunResult r;
    {
      Span span("congest.install");
      const Clock::time_point t0 = Clock::now();
      net_->install([this, &replay](NodeId u, const NodeContext&) {
        return std::make_unique<WalkerProgram>(&in_.walkers, u,
                                               replay.expect.rounds);
      });
      r.install_s = seconds_between(t0, Clock::now());
    }
    r.stats = run({.max_rounds = replay.expect.rounds,
                   .threads = kThreads,
                   .audit = audit,
                   .frontier = true},
                  &r.seconds);
    bool walkers_ok = true;
    for (int w = 0; w < kWalkers; ++w) {
      const auto i = static_cast<std::size_t>(w);
      const auto* p = static_cast<const WalkerProgram*>(
          net_->program(replay.before_last[i]));
      walkers_ok = walkers_ok && p->final_target(w) == replay.end[i];
    }
    report_.checks.op(r.stats == replay.expect && walkers_ok,
                      "sparse run: " + stats_text(r.stats) + ", expected " +
                          stats_text(replay.expect) +
                          (walkers_ok ? "" : "; walkers differ from replay"));
    return r;
  }

 private:
  RunStats run(const RunOptions& ro, double* seconds) {
    Span span("congest.run", request_++);
    const Clock::time_point t0 = Clock::now();
    const RunStats stats = net_->run(ro);
    *seconds = seconds_between(t0, Clock::now());
    return stats;
  }

  const Inputs& in_;
  Report& report_;
  std::unique_ptr<Network> net_;
  std::uint64_t dense_fold_ = 0;
  long request_ = 0;
};

struct Pass {
  std::vector<double> dense_s;   // per run
  std::vector<double> sparse_s;  // per 100-round run less its 1-round twin
  std::vector<double> install_s;
  RunStats dense_stats;
};

/// One dense run, one 100-round and one 1-round frontier run; the
/// difference of the last two is 99 frontier rounds.
void measure_once(Engine& engine, bool audit, Pass& pass) {
  const RunResult d = engine.dense(kThreads, audit);
  pass.dense_s.push_back(d.seconds);
  pass.install_s.push_back(d.install_s);
  pass.dense_stats = d.stats;
  const double sparse = engine.sparse(audit).seconds;
  pass.sparse_s.push_back(sparse - engine.sparse(audit, true).seconds);
}

/// One timed pass of `seconds`: dense and sparse runs alternate, so a slow
/// spell of the host falls on both sections alike.
Pass measure(Engine& engine, double seconds) {
  Pass pass;
  repeat_for(seconds, 3, [&] { measure_once(engine, true, pass); });
  return pass;
}

double frontier_round_s(const Pass& pass) {
  return median(pass.sparse_s) / (kSparseRounds - 1);
}

void add_e2e(std::vector<Metric>& out, const Pass& pass) {
  out.push_back({"dense_rounds_per_s",
                 (kDenseRounds + 1) / median(pass.dense_s), "rounds/s",
                 static_cast<long>(pass.dense_s.size()),
                 "audited, 4 threads, median over runs"});
  out.push_back({"sparse_rounds_per_s", 1.0 / frontier_round_s(pass),
                 "rounds/s", static_cast<long>(pass.sparse_s.size()),
                 "audited frontier, 4 threads: 99 / median(t_100 - t_1)"});
}

}  // namespace

Report run_million_lb(const Options& options) {
  Report report;
  report.primary = "dense_rounds_per_s";
  report.secondary = "sparse_rounds_per_s";
  const qdc::core::LbTopologyView shape(kGamma, kLength);
  const Inputs in = make_inputs(shape, options.seed);
  Engine engine(in, report);

  // Input derivation and the central walker replay above are the
  // benchmark's own work, outside setup_s.
  std::vector<double> view_s;
  std::vector<double> build_s;
  double rss_after_setup = 0.0;
  std::shared_ptr<const qdc::core::LbTopologyView> view;
  Pass last;
  run_phases(
      options, report,
      {.setup =
           [&] {
             engine.reset();
             view.reset();
             Span rep_span("bench.setup");
             const Clock::time_point t0 = Clock::now();
             {
               Span span("core.view_build");
               view = std::make_shared<qdc::core::LbTopologyView>(kGamma,
                                                                  kLength);
             }
             const Clock::time_point t1 = Clock::now();
             engine.build(view);
             const Clock::time_point t2 = Clock::now();
             Pass warm_up;
             measure_once(engine, true, warm_up);
             const Clock::time_point t3 = Clock::now();
             view_s.push_back(seconds_between(t0, t1));
             build_s.push_back(seconds_between(t1, t2));
             rss_after_setup = current_rss_mb();
             return seconds_between(t0, t3);
           },
       .setup_note = "view + network + one warm-up run of each section",
       .pass =
           [&](std::vector<Metric>& out) {
             last = measure(engine, options.seconds);
             add_e2e(out, last);
           }});
  report.fact("million_lb.nodes", std::to_string(view->node_count()));
  report.fact("million_lb.edges", std::to_string(view->edge_count()));
  report.fact("million_lb.rss_after_setup_mb", format_double(rss_after_setup));
  report.fact(
      "million_lb.peak_rss_mb",
      format_double(find_metric(report.end_to_end, "peak_rss_mb")->value));

  if (options.trace) {
    // Audit share, both sections: the same runs with the auditor off.
    Pass unaudited;
    for (int i = 0; i < 3; ++i) measure_once(engine, false, unaudited);
    const auto n_off = static_cast<long>(unaudited.dense_s.size());
    // The 1-thread run, with per-instance on_round accumulators; Engine
    // checks its outputs and RunStats against the 4-thread runs.
    const RunResult serial = engine.dense(1, true, true);
    Clock::duration busy{};
    for (NodeId u = 0; u < engine.net().node_count(); ++u) {
      busy += static_cast<const FloodProgram*>(engine.net().program(u))->busy();
    }
    const double program = std::chrono::duration<double>(busy).count();
    // Active nodes per frontier round after round 0, from the walkers'
    // call counters.
    engine.sparse(true);
    long calls = 0;
    for (NodeId u = 0; u < engine.net().node_count(); ++u) {
      calls += static_cast<const WalkerProgram*>(engine.net().program(u))->calls();
    }

    const double dense_run = median(last.dense_s);
    const auto n = static_cast<long>(last.dense_s.size());
    report.layer("core.view_build_s", median(view_s), "s",
                 static_cast<long>(view_s.size()), "-> setup_s");
    report.layer("congest.network_build_s", median(build_s), "s",
                 static_cast<long>(build_s.size()), "-> setup_s");
    report.layer("congest.install_s", median(last.install_s), "s", n,
                 "1M program instances -> setup_s");
    report.layer("congest.dense_run_s", dense_run, "s", n,
                 "-> dense_rounds_per_s");
    report.layer("congest.audit_frac.dense",
                 1.0 - median(unaudited.dense_s) / dense_run, "ratio", n_off,
                 "1 - unaudited/audited -> dense_rounds_per_s");
    report.layer("congest.audit_frac.sparse",
                 1.0 - frontier_round_s(unaudited) / frontier_round_s(last),
                 "ratio", n_off,
                 "per frontier round after round 0 -> sparse_rounds_per_s");
    report.layer("congest.serial_run_s", serial.seconds, "s", 1,
                 "same run at threads=1 -> dense_rounds_per_s");
    report.layer("congest.scaling_eff", serial.seconds / (kThreads * dense_run),
                 "ratio", 1, "serial / (4 x dense) -> dense_rounds_per_s");
    report.layer("congest.program_s", program, "s", 1,
                 "time inside on_round, 1-thread run -> dense_rounds_per_s");
    report.layer("congest.engine_self_s", serial.seconds - program, "s", 1,
                 "serial - program -> dense_rounds_per_s");
    report.layer("congest.rounds", last.dense_stats.rounds, "count");
    report.layer("congest.messages",
                 static_cast<double>(last.dense_stats.messages), "count");
    report.layer("congest.fields",
                 static_cast<double>(last.dense_stats.fields), "count");
    report.layer("congest.sparse_active_per_round",
                 static_cast<double>(calls) / (kSparseRounds - 1), "nodes", 1,
                 "on_round calls / rounds, round 0 (every node) left out "
                 "-> sparse_rounds_per_s");
    report.layer("congest.sparse_round_us", 1e6 * frontier_round_s(last), "us",
                 static_cast<long>(last.sparse_s.size()),
                 "(t_100 - t_1) / 99 -> sparse_rounds_per_s");
    report.layer("mem.rss_after_setup_mb", rss_after_setup, "MiB", 1,
                 "-> peak_rss_mb");
  }
  return report;
}

}  // namespace perfbench
