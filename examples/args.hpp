// Argument checks shared by the examples. Each argument is a whole decimal
// integer inside the range the example's usage line states; anything else
// prints that line to stderr and exits 2 before the example builds
// anything.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace qdc::examples {

class Args {
 public:
  /// Accepts at most `max_args` arguments after the program name.
  Args(int argc, char** argv, int max_args, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {
    if (argc > max_args + 1) fail();
  }

  /// Argument `i` (1-based) as a whole decimal integer in [lo, hi];
  /// `fallback` when it was not given. A sign, a blank or trailing text is
  /// an error.
  long long integer(int i, long long lo, long long hi,
                    long long fallback) const {
    if (i >= argc_) return fallback;
    const char* s = argv_[i];
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(s, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(s[0])) == 0 || *end != '\0' ||
        errno == ERANGE || value < lo || value > hi) {
      fail();
    }
    return value;
  }

  /// Prints the usage line to stderr and exits 2.
  [[noreturn]] void fail() const {
    std::fprintf(stderr, "usage: %s\n", usage_);
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace qdc::examples
