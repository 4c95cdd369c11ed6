#include "harness.hpp"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

namespace qdc::bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\n"
               "shared bench flags:\n"
               "  --sweep-threads N   sweep-level workers (0 = hardware)\n"
               "  --out PATH          write a JSON timing report\n",
               message.c_str());
  std::exit(2);
}

}  // namespace

HarnessOptions parse_harness_flags(int argc, char** argv) {
  HarnessOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep-threads") {
      if (i + 1 >= argc) usage_error("--sweep-threads requires a value");
      char* end = nullptr;
      errno = 0;
      const long value = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || value < 0 || errno == ERANGE ||
          value > INT_MAX) {
        usage_error("--sweep-threads wants an integer in [0, " +
                    std::to_string(INT_MAX) + "]");
      }
      options.sweep_threads = static_cast<int>(value);
    } else if (arg == "--out") {
      if (i + 1 >= argc) usage_error("--out requires a path");
      options.out = argv[++i];
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  return options;
}

SweepHarness::SweepHarness(std::string bench_name, HarnessOptions options)
    : bench_name_(std::move(bench_name)),
      options_(std::move(options)),
      runner_(util::SweepOptions{.threads = options_.sweep_threads}) {}

SweepHarness::~SweepHarness() {
  if (!options_.out.empty()) write_report();
}

void SweepHarness::run_section(
    const std::string& section, int job_count,
    const std::function<void(const util::SweepJob&)>& job) {
  Section record;
  record.name = section;
  record.jobs = job_count;
  record.job_seconds.assign(static_cast<std::size_t>(job_count), 0.0);
  const Clock::time_point section_start = Clock::now();
  runner_.run(job_count, [&](const util::SweepJob& j) {
    const Clock::time_point job_start = Clock::now();
    job(j);
    // The slot is owned by this job index; no other job writes it.
    record.job_seconds[static_cast<std::size_t>(j.index)] =
        seconds_since(job_start);
  });
  record.seconds = seconds_since(section_start);
  sections_.push_back(std::move(record));
}

void SweepHarness::write_report() const {
  std::ofstream out(options_.out);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", options_.out.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"bench\": \"" << bench_name_ << "\",\n";
  out << "  \"sweep_threads\": " << runner_.worker_count() << ",\n";
  out << "  \"sections\": [\n";
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const Section& section = sections_[s];
    out << "    {\n";
    out << "      \"name\": \"" << section.name << "\",\n";
    out << "      \"jobs\": " << section.jobs << ",\n";
    out << "      \"seconds\": " << section.seconds << ",\n";
    out << "      \"job_seconds\": [";
    for (std::size_t j = 0; j < section.job_seconds.size(); ++j) {
      if (j != 0) out << ", ";
      out << section.job_seconds[j];
    }
    out << "]\n";
    out << "    }" << (s + 1 < sections_.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

std::string strprintf(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (size > 0) {
    result.resize(static_cast<std::size_t>(size));
    // size + 1: vsnprintf writes the terminating NUL; std::string owns
    // result[size] for exactly that byte since C++11.
    std::vsnprintf(result.data(), static_cast<std::size_t>(size) + 1, format,
                   args_copy);
  }
  va_end(args_copy);
  return result;
}

}  // namespace qdc::bench
