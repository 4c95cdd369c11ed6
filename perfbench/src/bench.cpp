#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Checks::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, long samples,
                 const std::string& note) {
  end_to_end.push_back({name, value, unit, samples, note});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, long samples,
                   const std::string& note) {
  per_layer.push_back({name, value, unit, samples, note});
}

void Report::fact(const std::string& key, const std::string& value) {
  facts.emplace_back(key, value);
}

const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double as_ms(const Metric& m) {
  if (m.unit == "s") return 1e3 * m.value;
  if (m.unit == "ms") return m.value;
  if (m.unit.size() > 2 && m.unit.ends_with("/s")) return 1e3 / m.value;
  throw std::logic_error("metric " + m.name + " in " + m.unit +
                         " has no millisecond form");
}

std::size_t run_phases(const Options& options, Report& report,
                       const Phases& phases) {
  Tracer& tracer = Tracer::global();
  tracer.enable(false);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) setup_s.push_back(phases.setup());
  phases.pass(report.end_to_end);
  report.e2e("setup_s", median(setup_s), "s", kSetups,
             "median of " + std::to_string(kSetups) + ": " + phases.setup_note);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM of this process");
  if (!options.trace) return 0;

  tracer.enable(true);
  report.end_to_end_traced.push_back(
      {"setup_s", phases.setup(), "s", 1, "one set-up with spans on"});
  const std::size_t first_span = tracer.span_count();
  phases.pass(report.end_to_end_traced);
  return first_span;
}

void repeat_for(double seconds, int min_runs,
                const std::function<void()>& iteration) {
  const Clock::time_point start = Clock::now();
  for (int runs = 0;
       runs < min_runs || seconds_between(start, Clock::now()) < seconds;
       ++runs) {
    iteration();
  }
}

double now_us() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// Reads a "Key:   123 kB" line of /proc/self/status, in MiB.
double proc_status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

double peak_rss_mb() { return proc_status_mb("VmHWM"); }
double current_rss_mb() { return proc_status_mb("VmRSS"); }

std::uint64_t cache_bytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string lvl = read_first_line(dir + "/level");
    if (lvl.empty()) break;
    if (std::stoi(lvl) != level) continue;
    if (read_first_line(dir + "/type") == "Instruction") continue;
    const std::string size = read_first_line(dir + "/size");
    if (size.empty()) return 0;
    std::uint64_t value = std::stoull(size);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    return value;
  }
  return 0;
}

void add_machine_facts(Report& report) {
  report.fact("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.fact("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  std::string model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  report.fact("cpu_model", model.empty() ? "unknown" : model);
  report.fact("l2_bytes", std::to_string(cache_bytes(2)));
  report.fact("l3_bytes", std::to_string(cache_bytes(3)));
  report.fact("build_type", PERFBENCH_BUILD_TYPE);
  report.fact("compiler", "gcc " __VERSION__);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return qdc::splitmix64(qdc::splitmix64(seed) ^
                         (stream * 0xd1b54a32d192ed03ULL));
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
