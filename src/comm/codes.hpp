// Error-correcting codes and fooling sets (Section 6's lower-bound
// ingredients for (beta n)-Eq): a code of minimum distance 2*beta*n yields
// a 1-fooling set of size 2^{(1-H(2 beta)) n} for Gap-Equality via the
// Gilbert-Varshamov bound.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bitstring.hpp"

namespace qdc::comm {

/// Binary entropy H(p) (H(0) = H(1) = 0).
double binary_entropy(double p);

/// The Gilbert-Varshamov guarantee: a binary code of length n and minimum
/// distance d with at least 2^n / V(n, d-1) codewords exists, where
/// V(n, r) = sum_{i<=r} C(n, i). Returns that lower bound on the size.
double gilbert_varshamov_bound(std::size_t n, std::size_t d);

/// Greedy (lexicographic) construction of a code with minimum distance d.
/// Scans the 2^n words in increasing order (bit i of word v is bit i of the
/// string) and keeps each word no kept codeword covers, then covers the
/// Hamming ball of radius d - 1 around it. One byte per word and
/// O(2^n + |code| * V(n, d-1)) marks: requires n <= 20. The result always
/// meets the Gilbert-Varshamov bound.
std::vector<BitString> greedy_code(std::size_t n, std::size_t d);

/// Verifies that every pair of distinct codewords is at distance >= d.
bool has_min_distance(const std::vector<BitString>& code, std::size_t d);

/// A 1-fooling set for a boolean function f: pairs (x, y) with
/// f(x, y) = 1 such that for any two pairs, f on at least one crossed pair
/// is 0 (the quantity fool1(f) in Section 6 / [KdW12]).
struct FoolingPair {
  BitString x;
  BitString y;
};

/// Checks the 1-fooling-set conditions for f over the given pairs. `f` is
/// any callable bool(const BitString&, const BitString&); a template, so
/// the predicate inlines into the quadratic crossed-pair loop.
template <typename F>
bool is_one_fooling_set(const F& f, const std::vector<FoolingPair>& pairs) {
  for (const FoolingPair& p : pairs) {
    if (!f(p.x, p.y)) return false;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      if (f(pairs[i].x, pairs[j].y) && f(pairs[j].x, pairs[i].y)) {
        return false;
      }
    }
  }
  return true;
}

/// The paper's fooling set for (delta)-Eq: diagonal pairs (c, c) over a
/// code of minimum distance > delta.
std::vector<FoolingPair> gap_eq_fooling_set(const std::vector<BitString>& code);

}  // namespace qdc::comm
