// Figure 12: the three possible global structures of the IPmod3 gadget
// graph, grouped by sum x_i y_i mod 3 - the histogram the figure depicts:
// residue 0 yields exactly three cycles (the three tracks close on
// themselves), residues 1 and 2 yield a single Hamiltonian cycle (the
// tracks braid into one).
#include <array>
#include <cstdio>

#include "comm/problems.hpp"
#include "gadgets/ham_gadgets.hpp"
#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(53);

  std::printf("=== Figure 12: cycle structure vs <x,y> mod 3 ===\n\n");
  std::printf("%10s %10s %16s %14s\n", "residue", "instances",
              "cycles observed", "consistent");
  std::array<int, 3> count{};
  std::array<int, 3> consistent{};
  std::array<int, 3> cycles_seen{};
  const std::size_t n = 48;
  for (int t = 0; t < 3000; ++t) {
    const auto x = BitString::random(n, rng);
    const auto y = BitString::random(n, rng);
    const int residue = comm::inner_product_mod(x, y, 3);
    const auto owned = gadgets::build_ip_mod3_ham_graph(x, y);
    const int cycles = graph::cycle_count_degree_two(owned.g);
    ++count[static_cast<std::size_t>(residue)];
    cycles_seen[static_cast<std::size_t>(residue)] = cycles;
    const int expected = residue == 0 ? 3 : 1;
    if (cycles == expected) ++consistent[static_cast<std::size_t>(residue)];
  }
  for (int r = 0; r < 3; ++r) {
    std::printf("%10d %10d %16d %10d/%d\n", r,
                count[static_cast<std::size_t>(r)],
                cycles_seen[static_cast<std::size_t>(r)],
                consistent[static_cast<std::size_t>(r)],
                count[static_cast<std::size_t>(r)]);
  }
  std::printf("\n(residue 0 <=> three disjoint track cycles; otherwise the "
              "+1 or +2 shift braids all tracks into one Hamiltonian "
              "cycle)\n");

  return 0;
}
