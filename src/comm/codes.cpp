#include "comm/codes.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/expect.hpp"

namespace qdc::comm {

double binary_entropy(double p) {
  QDC_EXPECT(p >= 0.0 && p <= 1.0, "binary_entropy: p out of [0,1]");
  if (p == 0.0 || p == 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

double gilbert_varshamov_bound(std::size_t n, std::size_t d) {
  QDC_EXPECT(d >= 1 && d <= n + 1, "gilbert_varshamov_bound: bad distance");
  // V(n, d-1) in log space to avoid overflow.
  double volume = 0.0;  // plain sum is fine for n <= ~60
  double binom = 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    if (i > 0) {
      binom *= static_cast<double>(n - i + 1) / static_cast<double>(i);
    }
    volume += binom;
  }
  return std::pow(2.0, static_cast<double>(n)) / volume;
}

std::vector<BitString> greedy_code(std::size_t n, std::size_t d) {
  QDC_EXPECT(n >= 1 && n <= 20, "greedy_code: n out of range");
  const std::uint32_t words = std::uint32_t{1} << n;
  // The masks of weight < d: XOR-ing one onto a kept word covers a word
  // within distance d - 1 of it.
  std::vector<std::uint32_t> ball;
  for (std::uint32_t m = 0; m < words; ++m) {
    if (static_cast<std::size_t>(std::popcount(m)) < d) ball.push_back(m);
  }
  std::vector<std::uint8_t> covered(words, 0);
  std::vector<BitString> code;
  for (std::uint32_t v = 0; v < words; ++v) {
    if (covered[v] != 0) continue;
    for (const std::uint32_t m : ball) covered[v ^ m] = 1;
    BitString s(n);
    for (std::size_t i = 0; i < n; ++i) s.set(i, (v >> i) & 1);
    code.push_back(std::move(s));
  }
  return code;
}

bool has_min_distance(const std::vector<BitString>& code, std::size_t d) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      if (code[i].hamming_distance(code[j]) < d) return false;
    }
  }
  return true;
}

std::vector<FoolingPair> gap_eq_fooling_set(
    const std::vector<BitString>& code) {
  std::vector<FoolingPair> pairs;
  pairs.reserve(code.size());
  for (const BitString& c : code) {
    pairs.push_back(FoolingPair{c, c});
  }
  return pairs;
}

}  // namespace qdc::comm
