// paper_grid: a fixed, seeded grid of the paper's experiments, run as jobs
// on util::SweepRunner with 4 workers; every job's inner Network::run uses
// one thread, as the figure benches do. Rows:
//
//  * Fig. 2 / Thm 3.6: build_bfs_tree + the eight verify_* on random
//    low-diameter graphs (a random subnetwork, a planted Hamiltonian cycle
//    and a planted Hamiltonian path);
//  * Fig. 3 / Thm 3.8: exact and bucketed run_mst over (n, W, alpha);
//  * run_bellman_ford and estimate_min_cut;
//  * Thm 3.5: account_three_party_cost of a traced BFS on N(Gamma, L), and
//    Hamiltonian-cycle verification on N(Gamma, L) against L/2 - 2;
//  * Example 1.1: compare_disjointness;
//  * the IPmod3 and Gap-Eq gadget builds, Lemma 3.2 transcript games and
//    XOR-game biases;
//  * Gap-Eq fooling sets (greedy_code + is_one_fooling_set), n <= 12.
//
// Why: this is what a reader of the paper runs. It is many runs on small
// networks, so the cost is per-run overhead (Network construction,
// install, the per-run ModelAuditor) and sweep load balance, the opposite
// use of the engine from million_lb. quantum is touched only through
// <= 12-qubit Grover registers; service is bypassed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "comm/codes.hpp"
#include "comm/lemma32.hpp"
#include "comm/problems.hpp"
#include "comm/server_model.hpp"
#include "congest/network.hpp"
#include "core/bounds.hpp"
#include "core/disjointness.hpp"
#include "core/lb_network.hpp"
#include "core/simulation.hpp"
#include "dist/mst.hpp"
#include "dist/sssp.hpp"
#include "dist/tree.hpp"
#include "dist/verify.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/mincut.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_paths.hpp"
#include "nonlocal/xor_game.hpp"
#include "trace.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace perfbench {
namespace {

using namespace qdc;

constexpr int kWorkers = 4;
constexpr int kBandwidth = 8;
/// Grothendieck's constant K_G < 1.7823: no XOR game's entangled bias
/// exceeds K_G times its classical bias (Tsirelson's theorem).
constexpr double kGrothendieck = 1.7823;

/// What one job hands back. The check compares it with a reference
/// computed centrally before the timed grids.
struct JobOut {
  std::vector<std::int64_t> ints;
  std::vector<double> reals;
  std::int64_t dist_rounds = 0;
  std::int64_t dist_messages = 0;
  double seconds = 0.0;
  std::string error;  // non-empty when the job threw
};

struct Job {
  std::string name;
  std::function<void(const util::SweepJob&, JobOut&)> run;
  /// Empty string when `out` is right.
  std::function<std::string(const JobOut&)> check;
};

congest::Network make_network(const graph::Graph& g) {
  Span span("congest.network_build");
  return congest::Network(g, congest::NetworkConfig{.bandwidth = kBandwidth});
}

congest::Network make_network(const graph::WeightedGraph& g) {
  Span span("congest.network_build");
  return congest::Network(g, congest::NetworkConfig{.bandwidth = kBandwidth});
}

dist::BfsTreeResult bfs(congest::Network& net, graph::NodeId root,
                        JobOut& out, const congest::RunOptions& ro = {}) {
  Span span("dist.bfs");
  dist::BfsTreeResult tree = dist::build_bfs_tree(net, root, ro);
  out.dist_rounds += tree.stats.rounds;
  out.dist_messages += tree.stats.messages;
  return tree;
}

std::string mismatch(const std::string& what, double got, double want) {
  return what + ": got " + format_double(got) + ", want " +
         format_double(want);
}

// ---------------------------------------------------------------- inputs

/// Fig. 2 / Thm 3.6 instance: a random low-diameter graph that contains a
/// Hamiltonian cycle, and one subnetwork M of it.
struct VerifyInput {
  graph::Graph topo;
  graph::EdgeSubset m;
  std::string kind;
};

struct MstInput {
  int n = 0;
  double aspect = 0.0;
  graph::WeightedGraph g;
};

struct DisjInput {
  BitString x;
  BitString y;
};

struct GadgetInput {
  BitString x;
  BitString y;
  int mismatches = -1;  // Gap-Eq rows only
};

struct Inputs {
  std::vector<VerifyInput> verify;
  std::vector<MstInput> mst;
  std::vector<graph::WeightedGraph> sssp;
  std::vector<graph::Graph> mincut;
  std::vector<DisjInput> disj;
  std::vector<GadgetInput> ipmod3;
  std::vector<GadgetInput> eq;
  std::vector<BitString> lemma32;
  std::vector<std::vector<std::vector<int>>> xor_games;
  std::vector<int> lb_roots;  // seeded BFS roots for the Thm 3.5 rows
};

constexpr int kVerifySizes[] = {64, 128, 256};
constexpr int kMstSizes[] = {64, 196};
constexpr double kMstAspects[] = {4.0, 64.0, 1024.0};
constexpr double kMstAlphas[] = {1.5, 2.0};
constexpr int kSsspSizes[] = {64, 128};
constexpr int kMinCutSizes[] = {64, 128};
constexpr int kDisjBits[] = {64, 256, 1024, 4096};
constexpr int kDisjDiameter = 3;
constexpr int kDisjLinkBits = 2;
constexpr int kDisjTrials = 3;
constexpr int kGadgetSizes[] = {32, 128};
constexpr int kLemma32Bits[] = {1, 2, 3};
constexpr int kLemma32Trials = 20000;
constexpr std::pair<int, int> kLbConfigs[] = {{2, 129}, {4, 129}, {4, 257},
                                              {8, 257}};
constexpr std::pair<int, int> kHamLbConfigs[] = {{3, 33}, {4, 65}};
constexpr std::size_t kCodeSizes[] = {8, 10, 12};

graph::Graph planted_hamiltonian(int n, Rng& rng,
                                 std::vector<graph::EdgeId>* cycle) {
  const graph::Graph ham = graph::random_hamiltonian_cycle(n, rng);
  graph::Graph g(n);
  cycle->clear();
  for (const graph::Edge& e : ham.edges()) cycle->push_back(g.add_edge(e.u, e.v));
  const graph::Graph extra = graph::random_gnp(n, 4.0 / n, rng);
  for (const graph::Edge& e : extra.edges()) {
    if (!g.has_edge(e.u, e.v)) g.add_edge(e.u, e.v);
  }
  return g;
}

Inputs generate_inputs(std::uint64_t seed) {
  Span span("graph.generate");
  Inputs in;
  Rng rng(derive_seed(seed, 10));
  for (const int n : kVerifySizes) {
    std::vector<graph::EdgeId> cycle;
    const graph::Graph topo = planted_hamiltonian(n, rng, &cycle);
    in.verify.push_back(
        {topo, graph::random_edge_subset(topo, 0.5, rng), "random"});
    in.verify.push_back(
        {topo, graph::EdgeSubset::of(topo.edge_count(), cycle), "ham_cycle"});
    cycle.erase(cycle.begin() +
                uniform_int(rng, 0, static_cast<std::int64_t>(cycle.size()) - 1));
    in.verify.push_back(
        {topo, graph::EdgeSubset::of(topo.edge_count(), cycle), "ham_path"});
  }
  for (const int n : kMstSizes) {
    for (const double w : kMstAspects) {
      in.mst.push_back({n, w, graph::random_weighted_aspect(n, 6.0 / n, w, rng)});
    }
  }
  for (const int n : kSsspSizes) {
    in.sssp.push_back(graph::randomly_weighted(
        graph::random_connected(n, 5.0 / n, rng), 1.0, 9.0, rng));
  }
  for (const int n : kMinCutSizes) {
    in.mincut.push_back(graph::random_connected(n, 6.0 / n, rng));
  }
  for (const int b : kDisjBits) {
    for (const bool intersect : {true, false}) {
      const auto bits = static_cast<std::size_t>(b);
      BitString x = BitString::random(bits, rng);
      BitString y = BitString::random(bits, rng);
      for (std::size_t i = 0; i < bits; ++i) {
        if (x.get(i)) y.set(i, false);
      }
      if (intersect) {
        const auto w = static_cast<std::size_t>(uniform_int(rng, 0, b - 1));
        x.set(w, true);
        y.set(w, true);
      }
      in.disj.push_back({x, y});
    }
  }
  for (const int n : kGadgetSizes) {
    const auto bits = static_cast<std::size_t>(n);
    in.ipmod3.push_back({BitString::random(bits, rng),
                         BitString::random(bits, rng)});
    for (const int delta : {0, 3}) {
      const BitString x = BitString::random(bits, rng);
      BitString y = x;
      for (int k = 0; k < delta; ++k) {
        const auto i = static_cast<std::size_t>(k * (n / delta)) +
                       static_cast<std::size_t>(uniform_int(rng, 0, n / delta - 1));
        y.set(i, !y.get(i));
      }
      in.eq.push_back({x, y, delta});
    }
  }
  for (const int bits : kLemma32Bits) {
    in.lemma32.push_back(BitString::random(static_cast<std::size_t>(bits), rng));
  }
  for (int size = 2; size <= 4; ++size) {
    const auto dim = static_cast<std::size_t>(size);
    std::vector<std::vector<int>> f(dim, std::vector<int>(dim));
    for (auto& row : f) {
      for (int& v : row) v = coin(rng) ? 1 : 0;
    }
    in.xor_games.push_back(f);
  }
  for (const auto& [gamma, len] : kLbConfigs) {
    (void)len;
    in.lb_roots.push_back(static_cast<int>(uniform_int(rng, 0, gamma - 1)));
  }
  return in;
}

// ------------------------------------------------------------ references

struct VerifyTruth {
  std::vector<std::int64_t> accepted;  // in verifier order
  double lower_bound = 0.0;
};

/// Centrally computed answers of the eight verifiers, in the order the job
/// runs them: Ham, ST, SCS, Conn, Cycle, eCycle, Bipart, Path.
VerifyTruth verify_truth(const VerifyInput& in) {
  std::vector<graph::EdgeId> old_ids;
  const graph::Graph sub = graph::subgraph(in.topo, in.m, &old_ids);
  const graph::EdgeId e = in.m.to_vector().front();
  const auto it = std::find(old_ids.begin(), old_ids.end(), e);
  const auto e_sub = static_cast<graph::EdgeId>(it - old_ids.begin());
  VerifyTruth t;
  t.accepted = {graph::subset_is_hamiltonian_cycle(in.topo, in.m),
                graph::subset_is_spanning_tree(in.topo, in.m),
                graph::is_spanning_connected_subgraph(in.topo, in.m),
                graph::is_connected(sub),
                graph::has_cycle(sub),
                graph::edge_on_cycle(sub, e_sub),
                graph::is_bipartite(sub),
                graph::is_simple_path(sub)};
  const int n = in.topo.node_count();
  t.lower_bound = core::verification_lower_bound(
      n, core::fields_to_bits(kBandwidth, n));
  return t;
}

// ------------------------------------------------------------------ jobs

std::vector<Job> make_jobs(const Inputs& in) {
  std::vector<Job> jobs;

  for (std::size_t i = 0; i < std::size(kLbConfigs); ++i) {
    const auto [gamma, len] = kLbConfigs[i];
    const int root_line = in.lb_roots[i];
    jobs.push_back(
        {"thm35_simulation",
         [gamma, len, root_line](const util::SweepJob&, JobOut& out) {
           const core::LbNetwork lbn(gamma, len);
           congest::Network net = make_network(lbn.topology());
           bfs(net, lbn.path_node(root_line, 1), out, {.record_trace = true});
           Span span("core.simulation");
           const core::SimulationAccounting acc =
               core::account_three_party_cost(lbn, net);
           out.ints = {acc.only_highway_edges_charged ? 1 : 0,
                       acc.max_charged_per_round, acc.per_round_bound,
                       acc.rounds, lbn.max_simulated_rounds()};
         },
         [](const JobOut& out) -> std::string {
           if (out.ints[0] != 1) return "non-highway edge charged";
           if (out.ints[1] > out.ints[2]) {
             return mismatch("charged fields per round above 6kB",
                             static_cast<double>(out.ints[1]),
                             static_cast<double>(out.ints[2]));
           }
           if (out.ints[3] > out.ints[4]) return "BFS ran past L/2 - 2";
           return {};
         }});
  }
  for (std::size_t i = 0; i < in.verify.size(); ++i) {
    const VerifyInput& v = in.verify[i];
    const VerifyTruth truth = verify_truth(v);
    jobs.push_back(
        {"fig2_verify_" + v.kind,
         [&v](const util::SweepJob&, JobOut& out) {
           congest::Network net = make_network(v.topo);
           const dist::BfsTreeResult tree = bfs(net, 0, out);
           const graph::EdgeId e = v.m.to_vector().front();
           Span span("dist.verify");
           const dist::VerifyResult r[] = {
               dist::verify_hamiltonian_cycle(net, tree, v.m),
               dist::verify_spanning_tree(net, tree, v.m),
               dist::verify_spanning_connected_subgraph(net, tree, v.m),
               dist::verify_connectivity(net, tree, v.m),
               dist::verify_cycle_containment(net, tree, v.m),
               dist::verify_e_cycle_containment(net, tree, v.m, e),
               dist::verify_bipartiteness(net, tree, v.m),
               dist::verify_simple_path(net, tree, v.m)};
           for (const dist::VerifyResult& x : r) {
             out.ints.push_back(x.accepted ? 1 : 0);
             out.reals.push_back(x.rounds);
             out.dist_rounds += x.rounds;
             out.dist_messages += x.messages;
           }
         },
         [truth](const JobOut& out) -> std::string {
           static const char* const names[] = {"Ham",   "ST",    "SCS",
                                               "Conn",  "Cycle", "eCycle",
                                               "Bipart", "Path"};
           for (std::size_t k = 0; k < truth.accepted.size(); ++k) {
             if (out.ints[k] != truth.accepted[k]) {
               return std::string("verifier ") + names[k] +
                      " disagrees with the central answer";
             }
             if (out.reals[k] < truth.lower_bound) {
               return mismatch(std::string("verifier ") + names[k] +
                                   " rounds below the Thm 3.6 lower bound",
                               out.reals[k], truth.lower_bound);
             }
           }
           return {};
         }});
  }
  for (const auto& [gamma, len] : kHamLbConfigs) {
    jobs.push_back(
        {"thm36_hard_network",
         [gamma = gamma, len = len](const util::SweepJob&, JobOut& out) {
           const core::LbNetwork lbn(gamma, len);
           congest::Network net = make_network(lbn.topology());
           const dist::BfsTreeResult tree = bfs(net, lbn.path_node(0, 1), out);
           const int lines = lbn.line_count();
           std::vector<graph::Edge> ec;
           std::vector<graph::Edge> ed;
           for (int l = 0; l + 1 < lines; l += 2) ec.push_back({l, l + 1});
           for (int l = 1; l + 1 < lines; l += 2) ed.push_back({l, l + 1});
           ed.push_back({lines - 1, 0});
           const graph::EdgeSubset m = lbn.embed_matchings(ec, ed);
           Span span("dist.verify");
           const dist::VerifyResult r =
               dist::verify_hamiltonian_cycle(net, tree, m);
           out.dist_rounds += r.rounds;
           out.dist_messages += r.messages;
           out.ints = {r.accepted ? 1 : 0, r.rounds, lbn.max_simulated_rounds(),
                       lines % 2 == 0 ? 1 : 0};
         },
         [](const JobOut& out) -> std::string {
           // With an even line count the embedded matchings close one
           // Hamiltonian cycle (Observation 8.1); odd counts embed none.
           if (out.ints[3] == 1 && out.ints[0] != 1) {
             return "Ham verification rejected an embedded Hamiltonian cycle";
           }
           if (out.ints[1] <= out.ints[2]) {
             return mismatch("Ham rounds not above L/2 - 2",
                             static_cast<double>(out.ints[1]),
                             static_cast<double>(out.ints[2]));
           }
           return {};
         }});
  }
  for (const MstInput& mi : in.mst) {
    const double opt = graph::mst_weight(mi.g);
    const double bits = core::fields_to_bits(kBandwidth, mi.n);
    jobs.push_back(
        {"fig3_mst",
         [&mi](const util::SweepJob&, JobOut& out) {
           congest::Network net = make_network(mi.g);
           const dist::BfsTreeResult tree = bfs(net, 0, out);
           Span span("dist.mst");
           const dist::MstRunResult exact = dist::run_mst(net, tree, {});
           out.reals.push_back(exact.weight);
           out.ints.push_back(exact.stats.rounds);
           out.dist_rounds += exact.stats.rounds;
           out.dist_messages += exact.stats.messages;
           for (const double alpha : kMstAlphas) {
             dist::MstOptions opt;
             opt.bucket_width = alpha - 1.0;
             opt.min_weight = 1.0;
             const dist::MstRunResult approx = dist::run_mst(net, tree, opt);
             out.reals.push_back(approx.weight);
             out.ints.push_back(approx.stats.rounds);
             out.dist_rounds += approx.stats.rounds;
             out.dist_messages += approx.stats.messages;
           }
         },
         [opt, bits, &mi](const JobOut& out) -> std::string {
           const double tol = 1e-9 * opt;
           if (std::abs(out.reals[0] - opt) > tol) {
             return mismatch("exact MST weight vs Kruskal", out.reals[0], opt);
           }
           for (std::size_t k = 0; k < std::size(kMstAlphas); ++k) {
             const double alpha = kMstAlphas[k];
             const double w = out.reals[k + 1];
             if (w > alpha * opt + tol || w < opt - tol) {
               return mismatch("bucketed MST weight outside [OPT, alpha OPT]",
                               w, alpha * opt);
             }
             const double lb = core::optimization_lower_bound(
                 mi.n, bits, mi.aspect, alpha);
             if (static_cast<double>(out.ints[k + 1]) < lb) {
               return mismatch("MST rounds below the Thm 3.8 lower bound",
                               static_cast<double>(out.ints[k + 1]), lb);
             }
           }
           return {};
         }});
  }
  for (const graph::WeightedGraph& g : in.sssp) {
    const std::vector<double> truth = graph::dijkstra(g, 0).distance;
    jobs.push_back(
        {"sssp_bellman_ford",
         [&g](const util::SweepJob&, JobOut& out) {
           congest::Network net = make_network(g);
           Span span("dist.sssp");
           const dist::SsspResult r = dist::run_bellman_ford(net, 0);
           out.reals = r.distance;
           out.dist_rounds += r.stats.rounds;
           out.dist_messages += r.stats.messages;
         },
         [truth](const JobOut& out) -> std::string {
           for (std::size_t v = 0; v < truth.size(); ++v) {
             if (std::abs(out.reals[v] - truth[v]) > 1e-9 * (1.0 + truth[v])) {
               return mismatch("Bellman-Ford distance vs Dijkstra",
                               out.reals[v], truth[v]);
             }
           }
           return {};
         }});
  }
  for (const graph::Graph& g : in.mincut) {
    const double cut = graph::min_cut_stoer_wagner(
                           graph::WeightedGraph::with_unit_weights(g))
                           .weight;
    // The sampling estimator is O(log n)-accurate (dist/sssp.hpp).
    const double factor = 2.0 * std::log2(static_cast<double>(g.node_count()));
    jobs.push_back(
        {"mincut_estimate",
         [&g](const util::SweepJob&, JobOut& out) {
           congest::Network net = make_network(g);
           const dist::BfsTreeResult tree = bfs(net, 0, out);
           Span span("dist.mincut");
           const dist::MinCutEstimate est = dist::estimate_min_cut(net, tree);
           out.reals = {est.estimate};
           out.dist_rounds += est.rounds;
           out.dist_messages += est.messages;
         },
         [cut, factor](const JobOut& out) -> std::string {
           const double est = out.reals[0];
           if (!(est >= cut / factor && est <= cut * factor)) {
             return mismatch("min-cut estimate outside the O(log n) factor",
                             est, cut);
           }
           return {};
         }});
  }
  for (const DisjInput& d : in.disj) {
    const bool truth = comm::disjointness(d.x, d.y);
    jobs.push_back(
        {"example11_disjointness",
         [&d](const util::SweepJob& job, JobOut& out) {
           Rng rng = job.make_rng();
           Span span("core.disjointness");
           const core::DisjointnessComparison c = core::compare_disjointness(
               d.x, d.y, kDisjDiameter, kDisjLinkBits, kDisjTrials, rng);
           out.ints = {c.truth ? 1 : 0, c.classical_answer ? 1 : 0,
                       c.quantum_answer ? 1 : 0, c.classical_rounds};
         },
         [truth](const JobOut& out) -> std::string {
           if (out.ints[0] != (truth ? 1 : 0)) return "disjointness truth";
           if (out.ints[1] != out.ints[0]) return "classical answer wrong";
           if (out.ints[2] != out.ints[0]) return "quantum answer wrong";
           return {};
         }});
  }
  for (const GadgetInput& gi : in.ipmod3) {
    const int residue = comm::inner_product_mod(gi.x, gi.y, 3);
    jobs.push_back(
        {"gadget_ipmod3",
         [&gi](const util::SweepJob&, JobOut& out) {
           Span span("gadgets.build");
           const gadgets::OwnedGraph og =
               gadgets::build_ip_mod3_ham_graph(gi.x, gi.y);
           out.ints = {graph::cycle_count_degree_two(og.g)};
         },
         [residue](const JobOut& out) -> std::string {
           const int want = residue != 0 ? 1 : 3;
           if (out.ints[0] != want) {
             return mismatch("IPmod3 gadget cycle count",
                             static_cast<double>(out.ints[0]), want);
           }
           return {};
         }});
  }
  for (const GadgetInput& gi : in.eq) {
    jobs.push_back(
        {"gadget_gap_eq",
         [&gi](const util::SweepJob&, JobOut& out) {
           Span span("gadgets.build");
           const gadgets::OwnedGraph og =
               gadgets::build_eq_ham_graph(gi.x, gi.y);
           out.ints = {graph::cycle_count_degree_two(og.g)};
         },
         [want = gi.mismatches + 1](const JobOut& out) -> std::string {
           if (out.ints[0] != want) {
             return mismatch("Gap-Eq gadget cycle count",
                             static_cast<double>(out.ints[0]), want);
           }
           return {};
         }});
  }
  for (std::size_t i = 0; i < in.lemma32.size(); ++i) {
    const BitString& x = in.lemma32[i];
    jobs.push_back(
        {"lemma32_transcript_game",
         [&x](const util::SweepJob& job, JobOut& out) {
           Rng rng = job.make_rng();
           Span span("comm.lemma32");
           const auto protocol = comm::make_stream_to_server_protocol(
               [](const BitString& a, const BitString& b) {
                 return comm::equality(a, b);
               },
               x.size());
           const comm::TranscriptGameEstimate est =
               comm::play_xor_game_from_server_protocol(protocol, x, x, true,
                                                        kLemma32Trials, rng);
           out.reals = {est.win_rate, est.predicted};
           out.ints = {est.charged_bits};
         },
         [bits = static_cast<std::int64_t>(x.size())](
             const JobOut& out) -> std::string {
           // Five standard deviations of a win-rate estimate.
           const double tol = 5.0 * std::sqrt(0.25 / kLemma32Trials);
           if (std::abs(out.reals[0] - out.reals[1]) > tol) {
             return mismatch("Lemma 3.2 win rate vs prediction", out.reals[0],
                             out.reals[1]);
           }
           if (out.ints[0] != 2 * bits) return "Lemma 3.2 charged bits";
           return {};
         }});
  }
  jobs.push_back(
      {"nonlocal_xor_bias",
       [&in](const util::SweepJob& job, JobOut& out) {
         Rng rng = job.make_rng();
         Span span("nonlocal.bias");
         const nonlocal::XorGame chsh = nonlocal::XorGame::chsh();
         out.reals = {nonlocal::classical_bias_exact(chsh),
                      nonlocal::quantum_bias_tsirelson(chsh, rng)};
         for (const auto& f : in.xor_games) {
           const nonlocal::XorGame g = nonlocal::XorGame::uniform(f);
           out.reals.push_back(nonlocal::classical_bias_exact(g));
           out.reals.push_back(nonlocal::quantum_bias_tsirelson(g, rng));
         }
       },
       [](const JobOut& out) -> std::string {
         if (std::abs(out.reals[0] - 0.5) > 1e-12) {
           return mismatch("CHSH classical bias", out.reals[0], 0.5);
         }
         if (std::abs(out.reals[1] - std::numbers::sqrt2 / 2) > 1e-3) {
           return mismatch("CHSH Tsirelson bias", out.reals[1],
                           std::numbers::sqrt2 / 2);
         }
         for (std::size_t k = 2; k + 1 < out.reals.size(); k += 2) {
           const double c = out.reals[k];
           const double q = out.reals[k + 1];
           if (q > kGrothendieck * c + 1e-9 || q > 1.0 + 1e-9) {
             return mismatch("XOR game entangled bias above K_G x classical",
                             q, kGrothendieck * c);
           }
         }
         return {};
       }});
  for (const std::size_t n : kCodeSizes) {
    const std::size_t d = 2 * std::max<std::size_t>(1, n / 8);
    const double gv = comm::gilbert_varshamov_bound(n, d);
    jobs.push_back(
        {"gap_eq_fooling_set",
         [n, d](const util::SweepJob&, JobOut& out) {
           Span span("comm.codes");
           const std::vector<BitString> code = comm::greedy_code(n, d);
           const bool valid = comm::is_one_fooling_set(
               [](const BitString& a, const BitString& b) { return a == b; },
               comm::gap_eq_fooling_set(code));
           out.ints = {static_cast<std::int64_t>(code.size()), valid ? 1 : 0,
                       comm::has_min_distance(code, d) ? 1 : 0};
         },
         [gv](const JobOut& out) -> std::string {
           if (out.ints[1] != 1) return "Gap-Eq fooling set invalid";
           if (out.ints[2] != 1) return "greedy code below its distance";
           if (static_cast<double>(out.ints[0]) < std::floor(gv)) {
             return mismatch("greedy code below Gilbert-Varshamov",
                             static_cast<double>(out.ints[0]), gv);
           }
           return {};
         }});
  }
  // Longest jobs first (costs measured once on a 4-core host), so the
  // sweep's in-order claiming leaves no straggler at the tail. The order
  // is fixed: job seeds follow job indices.
  static const char* const kOrder[] = {
      "gap_eq_fooling_set",     "fig2_verify_random", "fig2_verify_ham_cycle",
      "fig2_verify_ham_path",   "example11_disjointness", "fig3_mst",
      "thm36_hard_network",     "mincut_estimate",    "lemma32_transcript_game",
      "thm35_simulation",       "sssp_bellman_ford",  "nonlocal_xor_bias",
      "gadget_ipmod3",          "gadget_gap_eq"};
  const auto rank = [](const Job& j) {
    return std::find(std::begin(kOrder), std::end(kOrder), j.name) -
           std::begin(kOrder);
  };
  std::stable_sort(jobs.begin(), jobs.end(), [&](const Job& a, const Job& b) {
    return rank(a) < rank(b);
  });
  return jobs;
}

struct GridRun {
  double wall_s = 0.0;
  double job_sum_s = 0.0;
  double job_max_s = 0.0;
  std::int64_t dist_rounds = 0;
  std::int64_t dist_messages = 0;
};

/// Runs the whole grid once on `runner`, then checks every job's output.
GridRun run_grid(util::SweepRunner& runner, const std::vector<Job>& jobs,
                 long grid_index, Report& report) {
  std::vector<JobOut> outs(jobs.size());
  GridRun g;
  {
    Span grid_span("sweep.grid", grid_index);
    const int parent = grid_span.id();
    const Clock::time_point t0 = Clock::now();
    runner.run(static_cast<int>(jobs.size()), [&](const util::SweepJob& sj) {
      const auto i = static_cast<std::size_t>(sj.index);
      Span span("sweep.job", sj.index, parent);
      const Clock::time_point j0 = Clock::now();
      try {
        jobs[i].run(sj, outs[i]);
      } catch (const std::exception& e) {
        outs[i].error = e.what();
      }
      outs[i].seconds = seconds_between(j0, Clock::now());
    });
    g.wall_s = seconds_between(t0, Clock::now());
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOut& o = outs[i];
    g.job_sum_s += o.seconds;
    g.job_max_s = std::max(g.job_max_s, o.seconds);
    g.dist_rounds += o.dist_rounds;
    g.dist_messages += o.dist_messages;
    const std::string why = o.error.empty() ? jobs[i].check(o) : o.error;
    report.checks.op(why.empty(),
                     "grid job " + std::to_string(i) + " (" + jobs[i].name +
                         "): " + why);
  }
  return g;
}

std::vector<GridRun> measure(util::SweepRunner& runner,
                             const std::vector<Job>& jobs, double seconds,
                             long* grid_index, Report& report) {
  std::vector<GridRun> runs;
  repeat_for(seconds, 3, [&] {
    runs.push_back(run_grid(runner, jobs, (*grid_index)++, report));
  });
  return runs;
}

std::vector<double> field(const std::vector<GridRun>& runs,
                          double GridRun::*member) {
  std::vector<double> out;
  for (const GridRun& r : runs) out.push_back(r.*member);
  return out;
}

void add_e2e(std::vector<Metric>& out, const std::vector<GridRun>& runs,
             std::size_t job_count) {
  const auto n = static_cast<long>(runs.size());
  out.push_back({"grid_s", median(field(runs, &GridRun::wall_s)), "s", n,
                 std::to_string(job_count) + " jobs on 4 sweep workers"});
  out.push_back({"grid_job_sum_s", median(field(runs, &GridRun::job_sum_s)),
                 "s", n, "summed job time of one grid (its 1-worker cost)"});
}

}  // namespace

Report run_paper_grid(const Options& options) {
  Report report;
  report.primary = "grid_s";
  report.secondary = "grid_job_sum_s";

  std::vector<double> generate_s;
  std::unique_ptr<Inputs> in;
  std::vector<Job> jobs;
  std::unique_ptr<util::SweepRunner> runner;
  long grid_index = 0;
  std::vector<GridRun> last;
  const std::size_t first_span = run_phases(
      options, report,
      {.setup =
           [&] {
             runner.reset();
             jobs.clear();
             const Clock::time_point t0 = Clock::now();
             in = std::make_unique<Inputs>(generate_inputs(options.seed));
             const Clock::time_point t1 = Clock::now();
             // The central references are the benchmark's own checking
             // work, kept out of setup_s.
             jobs = make_jobs(*in);
             const Clock::time_point t2 = Clock::now();
             runner = std::make_unique<util::SweepRunner>(util::SweepOptions{
                 .threads = kWorkers,
                 .master_seed = derive_seed(options.seed, 11)});
             run_grid(*runner, jobs, grid_index++, report);
             generate_s.push_back(seconds_between(t0, t1));
             return seconds_between(t0, t1) + seconds_between(t2, Clock::now());
           },
       .setup_note = "inputs + sweep runner + one warm-up grid",
       .pass =
           [&](std::vector<Metric>& out) {
             last = measure(*runner, jobs, options.seconds, &grid_index,
                            report);
             add_e2e(out, last, jobs.size());
           }});
  report.fact("paper_grid.jobs", std::to_string(jobs.size()));

  if (options.trace) {
    const std::vector<GridRun>& traced = last;
    const auto grids = static_cast<double>(traced.size());
    const auto n = static_cast<long>(traced.size());
    const double wall = median(field(traced, &GridRun::wall_s));
    const double job_sum = median(field(traced, &GridRun::job_sum_s));
    report.layer("sweep.job_sum_s", job_sum, "s", n, "per grid -> grid_s");
    report.layer("sweep.job_max_s", median(field(traced, &GridRun::job_max_s)),
                 "s", n, "slowest job of a grid -> grid_s");
    report.layer("sweep.busy_frac", job_sum / (kWorkers * wall), "ratio", n,
                 "job_sum / (4 x grid wall); low = a straggler sets grid_s");
    report.layer("graph.generate_s", median(generate_s), "s",
                 static_cast<long>(generate_s.size()), "-> setup_s");
    const auto spans = Tracer::global().layer_times(first_span);
    const auto per_grid = [&](const char* span) {
      const auto it = spans.find(span);
      return it == spans.end() ? 0.0 : it->second.total_us * 1e-6 / grids;
    };
    const auto self_per_grid = [&](const char* span) {
      const auto it = spans.find(span);
      return it == spans.end() ? 0.0 : it->second.self_us * 1e-6 / grids;
    };
    report.layer("congest.network_build_s", per_grid("congest.network_build"),
                 "s", n, "summed over the jobs of a grid -> grid_s");
    report.layer("dist.bfs_s", per_grid("dist.bfs"), "s", n, "-> grid_s");
    report.layer("dist.verify_s", per_grid("dist.verify"), "s", n, "-> grid_s");
    report.layer("dist.mst_s", per_grid("dist.mst"), "s", n, "-> grid_s");
    report.layer("dist.sssp_s", per_grid("dist.sssp"), "s", n, "-> grid_s");
    report.layer("dist.mincut_s", per_grid("dist.mincut"), "s", n, "-> grid_s");
    report.layer("dist.rounds", static_cast<double>(traced.back().dist_rounds),
                 "count", 1, "summed from the returned stats, per grid");
    report.layer("dist.messages",
                 static_cast<double>(traced.back().dist_messages), "count", 1,
                 "summed from the returned stats, per grid");
    report.layer("core.simulation_s", per_grid("core.simulation"), "s", n,
                 "-> grid_s");
    report.layer("core.disjointness_s", per_grid("core.disjointness"), "s", n,
                 "-> grid_s");
    report.layer("gadgets.build_s", per_grid("gadgets.build"), "s", n,
                 "-> grid_s");
    report.layer("comm.codes_s", per_grid("comm.codes"), "s", n, "-> grid_s");
    report.layer("comm.lemma32_s", per_grid("comm.lemma32"), "s", n,
                 "-> grid_s");
    report.layer("nonlocal.bias_s", per_grid("nonlocal.bias"), "s", n,
                 "-> grid_s");
    report.layer("sweep.job_self_s", self_per_grid("sweep.job"), "s", n,
                 "job time outside every layer span, such as building the "
                 "LbNetwork graphs -> grid_s");
  }
  return report;
}

}  // namespace perfbench
