// Engine-scaling harness: measures the deterministic parallel round engine
// (congest/network.cpp) across thread counts and topologies, and emits
// BENCH_engine.json — the repo's recorded perf trajectory.
//
//   ./bench_engine_scaling [--smoke] [--gate] [--out PATH]
//
// --smoke shrinks every instance to seconds-scale for CI; --gate runs the
// medium-size configuration the CI speedup regression gate reads (the
// N(Gamma, L) case at threads {1, 4} plus the sparse-activity pair — see
// the GATES table of tools/check_bench_schema.py); --out defaults to
// BENCH_engine.json in the working directory.
//
// Schema v3 cases (each tagged with the TopologyView kind and whether the
// event-driven wake rule, RunOptions::frontier, ran):
//   * lb_network / path / random — materialized scaling across thread
//     counts under the default wake rule, as in v2;
//   * million_path — a 2^20-node PathView: the topology is never
//     materialized, the round loop and the ModelAuditor both run purely
//     off the formula (full + smoke modes);
//   * million_lb — the paper's N(Gamma=1000, L=1025) as an implicit
//     LbTopologyView: 1,026,033 nodes and ~3.6M edges, audited (full mode);
//   * sparse_activity_dense / sparse_activity_frontier — the same
//     token-bouncing workload (~1 active node per round on a 16k path)
//     re-waking every live node each round and under RunOptions::frontier:
//     the pair the frontier speedup gate compares. These runs hit max_rounds by design
//     (the token never stops), so completion is not required of them.
//
// Every run keeps the ModelAuditor on — the reported rounds/sec are for
// fully audited executions, the only kind the experiments trust.
//
// Besides the per-run engine scaling ("cases"), the report carries a
// sweep-level section ("sweep"): many small independent Network::run jobs
// driven through util::SweepRunner at increasing worker counts, each job
// with inner RunOptions::threads = 1 — the batched-sweep axis the figure
// benches use. Sweep-level scaling is what makes whole parameter grids
// affordable; see docs/EXPERIMENT_PIPELINE.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/topology.hpp"
#include "core/lb_network.hpp"
#include "core/lb_topology.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/thread_pool.hpp"

namespace {

using qdc::congest::Incoming;
using qdc::congest::MaterializedView;
using qdc::congest::Network;
using qdc::congest::NetworkConfig;
using qdc::congest::NodeContext;
using qdc::congest::NodeId;
using qdc::congest::NodeProgram;
using qdc::congest::Payload;
using qdc::congest::RunStats;
using qdc::congest::TopologyView;

/// Round-synchronous flood with a tunable local-compute knob: every round
/// each node folds its inbox, burns `work` hash iterations (standing in
/// for a real program's local computation), and pushes two fields through
/// every port (or the first `port_cap` ports — the million-node cases cap
/// fan-out so the high-degree clique nodes do not dominate memory).
/// Halts after `rounds` rounds.
class ScalingProgram : public NodeProgram {
 public:
  ScalingProgram(int rounds, int work, int port_cap)
      : rounds_(rounds), work_(work), port_cap_(port_cap) {}

  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    for (const Incoming& msg : inbox) {
      for (const std::int64_t f : msg.data) {
        acc_ = qdc::splitmix64(acc_ ^ static_cast<std::uint64_t>(f));
      }
    }
    for (int i = 0; i < work_; ++i) {
      acc_ = qdc::splitmix64(acc_);
    }
    if (ctx.round() >= rounds_) {
      ctx.set_output(static_cast<std::int64_t>(acc_ & 0x7fffffff));
      ctx.halt();
      return;
    }
    const Payload out{static_cast<std::int64_t>(acc_ & 0xffff),
                      ctx.round()};
    const int ports = std::min(ctx.degree(), port_cap_);
    for (int p = 0; p < ports; ++p) {
      ctx.send(p, out);
    }
  }

 private:
  int rounds_;
  int work_;
  int port_cap_;
  std::uint64_t acc_ = 0x243f6a8885a308d3ULL;
};

/// Event-driven token bounce on a path: node 0 launches a token in round 0;
/// each later round exactly one node holds it and forwards it (reflecting
/// at the endpoints). No node ever halts, so the run always hits
/// max_rounds; under the event-driven wake rule only the token holder is
/// touched each round, while the default rule still visits all n silent
/// nodes.
class TokenBounceProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, const std::vector<Incoming>& inbox) override {
    if (ctx.round() == 0) {
      if (ctx.id() == 0) ctx.send(0, {1});
      return;
    }
    for (const Incoming& msg : inbox) {
      const int out = ctx.degree() == 2 ? 1 - msg.port : msg.port;
      ctx.send(out, {msg.data[0] + 1});
    }
  }
};

using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(NodeId, const NodeContext&)>;

struct ThreadResult {
  int threads = 0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  double speedup = 1.0;
};

struct CaseResult {
  std::string name;
  std::string topology;
  std::string topology_kind;
  bool frontier = false;
  int nodes = 0;
  int edges = 0;
  int rounds = 0;
  std::vector<ThreadResult> results;
};

struct SweepWorkerResult {
  int workers = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double speedup = 1.0;
};

struct SweepResult {
  int jobs = 0;
  int job_nodes = 0;
  int job_rounds = 0;
  std::vector<SweepWorkerResult> results;
};

struct CaseSpec {
  std::string name;
  std::string topology;
  std::shared_ptr<const TopologyView> view;
  int rounds = 0;
  bool frontier = false;
  bool expect_complete = true;
  ProgramFactory factory;
  std::vector<int> thread_counts;
};

CaseResult run_case(const CaseSpec& spec) {
  CaseResult result;
  result.name = spec.name;
  result.topology = spec.topology;
  result.topology_kind = spec.view->kind();
  result.frontier = spec.frontier;
  result.nodes = spec.view->node_count();
  result.edges = spec.view->edge_count();
  result.rounds = spec.rounds;
  Network net(spec.view, NetworkConfig{.bandwidth = 8});
  for (const int threads : spec.thread_counts) {
    net.install(spec.factory);
    const auto start = std::chrono::steady_clock::now();
    const RunStats stats = net.run({.max_rounds = spec.rounds,
                                    .threads = threads,
                                    .frontier = spec.frontier});
    const auto stop = std::chrono::steady_clock::now();
    if (spec.expect_complete && !stats.completed) {
      std::cerr << "engine_scaling: case " << spec.name
                << " did not complete\n";
      std::exit(1);
    }
    ThreadResult tr;
    tr.threads = threads;
    tr.seconds = std::chrono::duration<double>(stop - start).count();
    tr.rounds_per_sec =
        tr.seconds > 0.0 ? static_cast<double>(stats.rounds) / tr.seconds
                         : 0.0;
    result.results.push_back(tr);
  }
  const double base = result.results.front().rounds_per_sec;
  for (ThreadResult& tr : result.results) {
    tr.speedup = base > 0.0 ? tr.rounds_per_sec / base : 1.0;
  }
  return result;
}

ProgramFactory scaling_factory(int rounds, int work,
                               int port_cap = std::numeric_limits<int>::max()) {
  return [rounds, work, port_cap](NodeId, const NodeContext&) {
    return std::make_unique<ScalingProgram>(rounds, work, port_cap);
  };
}

/// The sweep-level axis: `jobs` independent small networks, each run to
/// completion with inner threads = 1, batched through a SweepRunner at
/// each worker count. Per-job graphs come from the runner's per-job seeds,
/// so every worker count executes the exact same job vector.
SweepResult run_sweep_section(int jobs, int job_nodes, int job_rounds,
                              int work, const std::vector<int>& workers) {
  SweepResult result;
  result.jobs = jobs;
  result.job_nodes = job_nodes;
  result.job_rounds = job_rounds;
  for (const int w : workers) {
    qdc::util::SweepRunner runner(qdc::util::SweepOptions{.threads = w});
    const auto start = std::chrono::steady_clock::now();
    runner.run(jobs, [&](const qdc::util::SweepJob& job) {
      qdc::Rng rng = job.make_rng();
      Network net(qdc::graph::random_connected(job_nodes, 6.0 / job_nodes,
                                               rng),
                  NetworkConfig{.bandwidth = 8});
      net.install(scaling_factory(job_rounds, work));
      const RunStats stats = net.run({.max_rounds = job_rounds + 2});
      if (!stats.completed) {
        std::cerr << "engine_scaling: sweep job " << job.index
                  << " did not complete\n";
        std::exit(1);
      }
    });
    const auto stop = std::chrono::steady_clock::now();
    SweepWorkerResult wr;
    wr.workers = w;
    wr.seconds = std::chrono::duration<double>(stop - start).count();
    wr.jobs_per_sec =
        wr.seconds > 0.0 ? static_cast<double>(jobs) / wr.seconds : 0.0;
    result.results.push_back(wr);
  }
  const double base = result.results.front().jobs_per_sec;
  for (SweepWorkerResult& wr : result.results) {
    wr.speedup = base > 0.0 ? wr.jobs_per_sec / base : 1.0;
  }
  return result;
}

void write_json(const std::string& path, const std::vector<CaseResult>& cases,
                const SweepResult& sweep, bool smoke,
                const std::string& mode) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "engine_scaling: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n";
  out << "  \"bench\": \"engine_scaling\",\n";
  out << "  \"schema_version\": 3,\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"hardware_threads\": "
      << qdc::util::ThreadPool::hardware_threads() << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CaseResult& cr = cases[c];
    out << "    {\n";
    out << "      \"name\": \"" << cr.name << "\",\n";
    out << "      \"topology\": \"" << cr.topology << "\",\n";
    out << "      \"topology_kind\": \"" << cr.topology_kind << "\",\n";
    out << "      \"frontier\": " << (cr.frontier ? "true" : "false")
        << ",\n";
    out << "      \"nodes\": " << cr.nodes << ",\n";
    out << "      \"edges\": " << cr.edges << ",\n";
    out << "      \"rounds\": " << cr.rounds << ",\n";
    out << "      \"results\": [\n";
    for (std::size_t r = 0; r < cr.results.size(); ++r) {
      const ThreadResult& tr = cr.results[r];
      out << "        {\"threads\": " << tr.threads
          << ", \"seconds\": " << tr.seconds
          << ", \"rounds_per_sec\": " << tr.rounds_per_sec
          << ", \"speedup\": " << tr.speedup << "}"
          << (r + 1 < cr.results.size() ? "," : "") << "\n";
    }
    out << "      ]\n";
    out << "    }" << (c + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"sweep\": {\n";
  out << "    \"jobs\": " << sweep.jobs << ",\n";
  out << "    \"job_nodes\": " << sweep.job_nodes << ",\n";
  out << "    \"job_rounds\": " << sweep.job_rounds << ",\n";
  out << "    \"results\": [\n";
  for (std::size_t r = 0; r < sweep.results.size(); ++r) {
    const SweepWorkerResult& wr = sweep.results[r];
    out << "      {\"workers\": " << wr.workers
        << ", \"seconds\": " << wr.seconds
        << ", \"jobs_per_sec\": " << wr.jobs_per_sec
        << ", \"speedup\": " << wr.speedup << "}"
        << (r + 1 < sweep.results.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr
          << "usage: bench_engine_scaling [--smoke] [--gate] [--out PATH]\n";
      return 1;
    }
  }
  if (smoke && gate) {
    std::cerr << "engine_scaling: --smoke and --gate are exclusive\n";
    return 1;
  }
  const std::string mode = gate ? "gate" : smoke ? "smoke" : "full";

  // gate: the medium-size N(Gamma, L) configuration the CI speedup
  // regression gate reads — large enough that per-round parallelism
  // dominates scheduling overhead, small enough for a PR-gating job.
  const int gamma = gate ? 16 : smoke ? 4 : 64;
  const int length = gate ? 33 : smoke ? 9 : 65;  // LbNetwork rounds L up
  const int n = smoke ? 64 : 4096;                // to 2^k + 1
  const int rounds = gate ? 12 : smoke ? 4 : 24;
  const int work = gate ? 128 : smoke ? 16 : 256;
  const std::vector<int> thread_counts =
      gate ? std::vector<int>{1, 4}
           : smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  std::vector<CaseResult> cases;
  {
    const qdc::core::LbNetwork lbn(gamma, length);
    cases.push_back(run_case(
        {.name = "lb_network",
         .topology = "lb_network",
         .view = std::make_shared<MaterializedView>(lbn.topology()),
         .rounds = rounds + 2,
         .factory = scaling_factory(rounds, work),
         .thread_counts = thread_counts}));
  }
  if (!gate) {
    cases.push_back(run_case(
        {.name = "path",
         .topology = "path",
         .view = std::make_shared<MaterializedView>(qdc::graph::path_graph(n)),
         .rounds = rounds + 2,
         .factory = scaling_factory(rounds, work),
         .thread_counts = thread_counts}));
    qdc::Rng rng(12345);
    const double p = smoke ? 0.1 : 0.002;
    cases.push_back(run_case(
        {.name = "random",
         .topology = "random",
         .view = std::make_shared<MaterializedView>(
             qdc::graph::random_connected(n, p, rng)),
         .rounds = rounds + 2,
         .factory = scaling_factory(rounds, work),
         .thread_counts = thread_counts}));

    // The million-node implicit cases: topology comes from a formula, the
    // graph is never materialized, and the audit stays on end to end.
    const int big_rounds = smoke ? 3 : 6;
    const int big_work = smoke ? 4 : 16;
    cases.push_back(run_case(
        {.name = "million_path",
         .topology = "path",
         .view = std::make_shared<qdc::congest::PathView>(1 << 20),
         .rounds = big_rounds + 2,
         .factory = scaling_factory(big_rounds, big_work, 2),
         .thread_counts = smoke ? std::vector<int>{1}
                                : std::vector<int>{1, 2, 4}}));
    if (!smoke) {
      cases.push_back(run_case(
          {.name = "million_lb",
           .topology = "lb_network",
           .view = std::make_shared<qdc::core::LbTopologyView>(1000, 1025),
           .rounds = big_rounds + 2,
           .factory = scaling_factory(big_rounds, big_work, 2),
           .thread_counts = {1, 2, 4}}));
    }
  }

  // The sparse-activity pair: identical workload, default vs event-driven
  // wake rule. The token never halts, so both runs hit max_rounds by design.
  {
    const int sparse_n = smoke ? 4096 : 16384;
    const int sparse_rounds = smoke ? 128 : 512;
    for (const bool frontier : {false, true}) {
      cases.push_back(run_case(
          {.name = frontier ? "sparse_activity_frontier"
                            : "sparse_activity_dense",
           .topology = "path",
           .view = std::make_shared<qdc::congest::PathView>(sparse_n),
           .rounds = sparse_rounds,
           .frontier = frontier,
           .expect_complete = false,
           .factory =
               [](NodeId, const NodeContext&) {
                 return std::make_unique<TokenBounceProgram>();
               },
           .thread_counts = {1}}));
    }
  }

  const int sweep_jobs = gate ? 8 : smoke ? 4 : 16;
  const int sweep_nodes = gate ? 192 : smoke ? 48 : 256;
  const int sweep_rounds = gate ? 8 : smoke ? 4 : 8;
  const SweepResult sweep = run_sweep_section(
      sweep_jobs, sweep_nodes, sweep_rounds, work, thread_counts);

  write_json(out_path, cases, sweep, smoke, mode);
  for (const CaseResult& cr : cases) {
    std::cout << cr.name << " (n=" << cr.nodes << ", m=" << cr.edges
              << ", kind=" << cr.topology_kind
              << (cr.frontier ? ", frontier" : "") << ")\n";
    for (const ThreadResult& tr : cr.results) {
      std::cout << "  threads=" << tr.threads
                << "  rounds/sec=" << tr.rounds_per_sec
                << "  speedup=" << tr.speedup << "\n";
    }
  }
  std::cout << "sweep (" << sweep.jobs << " jobs, n=" << sweep.job_nodes
            << ")\n";
  for (const SweepWorkerResult& wr : sweep.results) {
    std::cout << "  workers=" << wr.workers
              << "  jobs/sec=" << wr.jobs_per_sec
              << "  speedup=" << wr.speedup << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
