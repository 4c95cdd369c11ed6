// Theorem 6.1 / Appendix B.3: the quantitative ingredients of the
// server-model hardness of IPmod3 and Gap-Equality.
//
//  * Paturi approximate degrees: the IPmod3 outer function [sum mod 3 == 0]
//    has Gamma = O(1), hence degree Theta(n) - the source of the Omega(n)
//    bound via Lemma B.4. OR (the Disjointness outer function) has degree
//    Theta(sqrt(n)) - which is why Disjointness is quantum-easy.
//  * Gilbert-Varshamov fooling sets for (beta n)-Eq: constructed greedily,
//    validated, and compared against the 2^{(1 - H(2 beta)) n} bound.
//  * The trivial upper bounds: stream-to-server protocols cost 2n, and the
//    Section 3.1 two-party simulation matches exactly.
#include <cmath>
#include <cstdio>

#include "comm/codes.hpp"
#include "comm/degree.hpp"
#include "comm/problems.hpp"
#include "comm/server_model.hpp"
#include "harness.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace qdc;
  bench::parse_harness_flags(argc, argv);
  Rng rng(97);

  std::printf("=== Theorem 6.1 ingredients ===\n\n");
  std::printf("Paturi approximate degrees (deg ~ sqrt(n (n - Gamma))):\n");
  std::printf("%22s %6s %8s %12s %14s\n", "function", "n", "Gamma",
              "deg estimate", "growth class");
  for (const std::size_t n : {64, 256, 1024}) {
    struct Row {
      const char* name;
      comm::SymmetricFunction f;
      const char* cls;
    };
    const Row rows[] = {
        {"OR (Disjointness)", comm::SymmetricFunction::or_n(n),
         "Theta(sqrt n)"},
        {"MAJORITY", comm::SymmetricFunction::majority(n), "Theta(n)"},
        {"PARITY", comm::SymmetricFunction::parity(n), "Theta(n)"},
        {"[sum mod 3 == 0]",
         comm::SymmetricFunction::mod_counter(n, 3, 0), "Theta(n)"},
    };
    for (const Row& r : rows) {
      std::printf("%22s %6zu %8zu %12.1f %14s\n", r.name, n,
                  comm::paturi_gamma(r.f), comm::approx_degree_estimate(r.f),
                  r.cls);
    }
  }

  std::printf("\nGilbert-Varshamov fooling sets for (beta n)-Eq:\n");
  std::printf("%4s %6s %8s %12s %12s %10s\n", "n", "delta", "|code|",
              "GV bound", "2^(1-H)n", "valid?");
  for (const std::size_t n : {8, 12, 16, 20}) {
    const std::size_t delta = std::max<std::size_t>(1, n / 8);
    const auto code = comm::greedy_code(n, 2 * delta);
    const auto pairs = comm::gap_eq_fooling_set(code);
    const bool valid = comm::is_one_fooling_set(
        [](const BitString& a, const BitString& b) { return a == b; },
        pairs);
    const double beta = double(delta) / double(n);
    const double entropy_bound =
        std::pow(2.0, (1.0 - comm::binary_entropy(
                                 std::min(0.5, 2.0 * beta))) *
                          double(n));
    std::printf("%4zu %6zu %8zu %12.1f %12.1f %10s\n", n, delta,
                code.size(), comm::gilbert_varshamov_bound(n, 2 * delta),
                entropy_bound, valid ? "yes" : "NO");
  }

  std::printf("\ntrivial server-model upper bounds and the Section 3.1 "
              "two-party simulation:\n");
  std::printf("%10s %14s %16s %12s\n", "n", "server cost", "two-party cost",
              "outputs ==");
  for (const std::size_t n : {8, 16, 32}) {
    const auto protocol = comm::make_stream_to_server_protocol(
        [](const BitString& a, const BitString& b) {
          return comm::ip_mod3_is_zero(a, b);
        },
        n);
    const auto x = BitString::random(n, rng);
    const auto y = BitString::random(n, rng);
    const auto sv = comm::run_server_protocol(protocol, x, y);
    const auto tp = comm::simulate_server_by_two_party(protocol, x, y);
    std::printf("%10zu %14d %16d %12s\n", n, sv.cost(), tp.cost(),
                sv.output == tp.output ? "yes" : "NO");
  }
  std::printf("\n(lower bound Omega(n) from the degree machinery + "
              "Lemma 3.2 meets these O(n) upper bounds, so IPmod3 hardness "
              "is tight in the server model)\n");

  return 0;
}
