// Tour of the Section 7 gadget reductions: compile (x, y) into the
// IPmod3 -> Ham graph and the Gap-Eq -> Ham graph and inspect the cycle
// structure (Figures 4-7 and 12).
//
//   $ ./gadget_tour [x-bits y-bits]   (0/1 strings of one length in 1..1024)
#include <cstdio>
#include <string>

#include "args.hpp"
#include "comm/problems.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "graph/algorithms.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  const examples::Args args(argc, argv, 2,
                            "gadget_tour [x-bits y-bits] (two 0/1 strings of "
                            "one length in 1..1024)");
  const std::string xs = argc > 2 ? argv[1] : "110101";
  const std::string ys = argc > 2 ? argv[2] : "101101";
  if (argc == 2 || xs.empty() || xs.size() > 1024 ||
      xs.size() != ys.size() ||
      (xs + ys).find_first_not_of("01") != std::string::npos) {
    args.fail();
  }
  const auto x = BitString::parse(xs);
  const auto y = BitString::parse(ys);

  std::printf("x = %s\ny = %s\n", xs.c_str(), ys.c_str());
  std::printf("<x,y> = %zu, mod 3 = %d\n", x.inner_product(y),
              comm::inner_product_mod(x, y, 3));

  const auto ip_graph = gadgets::build_ip_mod3_ham_graph(x, y);
  std::printf(
      "IPmod3 gadget graph: %d nodes (12 per position), %d edges; Carol "
      "holds %d, David %d\n",
      ip_graph.g.node_count(), ip_graph.g.edge_count(),
      ip_graph.carol_edges.size(), ip_graph.david_edges.size());
  std::printf("  cycles: %d  =>  %s (Lemma C.3: Hamiltonian iff <x,y> mod 3 "
              "!= 0)\n",
              graph::cycle_count_degree_two(ip_graph.g),
              graph::is_hamiltonian_cycle(ip_graph.g) ? "HAMILTONIAN"
                                                      : "not Hamiltonian");

  const auto eq_graph = gadgets::build_eq_ham_graph(x, y);
  std::printf("Gap-Eq gadget graph: %d nodes, %d edges\n",
              eq_graph.g.node_count(), eq_graph.g.edge_count());
  std::printf(
      "  Hamming distance %zu  =>  %d cycles  =>  %s (Figure 7: one "
      "Hamiltonian cycle iff x == y)\n",
      x.hamming_distance(y), graph::cycle_count_degree_two(eq_graph.g),
      graph::is_hamiltonian_cycle(eq_graph.g) ? "HAMILTONIAN"
                                              : "not Hamiltonian");

  // Section 9.1: the same instance as a spanning-tree question.
  const auto st = gadgets::spanning_tree_instance_from_ham(ip_graph.g, 0);
  std::printf("Ham -> ST reduction: drop one edge, spanning tree? %s\n",
              graph::is_spanning_tree(st) ? "yes" : "no");
  return 0;
}
