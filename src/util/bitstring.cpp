#include "util/bitstring.hpp"

#include <algorithm>
#include <numeric>

#include "util/expect.hpp"

namespace qdc {

BitString BitString::parse(const std::string& s) {
  BitString out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    QDC_EXPECT(s[i] == '0' || s[i] == '1', "BitString::parse: bad character");
    out.bits_[i] = static_cast<std::uint8_t>(s[i] - '0');
  }
  return out;
}

BitString BitString::random(std::size_t n, Rng& rng) {
  BitString out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.bits_[i] = static_cast<std::uint8_t>(coin(rng) ? 1 : 0);
  }
  return out;
}

bool BitString::get(std::size_t i) const {
  QDC_EXPECT(i < bits_.size(), "BitString::get: index out of range");
  return bits_[i] != 0;
}

void BitString::set(std::size_t i, bool v) {
  QDC_EXPECT(i < bits_.size(), "BitString::set: index out of range");
  bits_[i] = static_cast<std::uint8_t>(v ? 1 : 0);
}

std::size_t BitString::weight() const {
  return static_cast<std::size_t>(
      std::count(bits_.begin(), bits_.end(), std::uint8_t{1}));
}

std::size_t BitString::hamming_distance(const BitString& other) const {
  QDC_EXPECT(size() == other.size(),
             "BitString::hamming_distance: length mismatch");
  // Bytes are 0 or 1, so their XOR is the per-bit distance: summing it
  // keeps the loop free of a branch per bit (and vectorizable).
  std::size_t d = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    d += static_cast<std::size_t>(bits_[i] ^ other.bits_[i]);
  }
  return d;
}

std::size_t BitString::inner_product(const BitString& other) const {
  QDC_EXPECT(size() == other.size(),
             "BitString::inner_product: length mismatch");
  std::size_t s = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    s += static_cast<std::size_t>(bits_[i] & other.bits_[i]);
  }
  return s;
}

void BitString::flip(std::size_t i) {
  QDC_EXPECT(i < bits_.size(), "BitString::flip: index out of range");
  bits_[i] ^= 1;
}

std::string BitString::to_string() const {
  std::string s(size(), '0');
  for (std::size_t i = 0; i < size(); ++i) {
    if (bits_[i]) s[i] = '1';
  }
  return s;
}

}  // namespace qdc
