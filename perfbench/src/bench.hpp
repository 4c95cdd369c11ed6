// Shared plumbing for the perfbench workloads: command-line options, the
// report every workload fills, correctness-check accounting, timing and
// memory probes, and machine facts.
//
// The benchmark lives outside src/ on purpose: it reads the wall clock and
// /proc, which the library never does.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed sections of one run
  bool trace = false;     ///< the separate traced run (per-layer metrics)
  std::string trace_path; ///< Chrome trace-event file written at exit
  std::string scratch_dir = ".";  ///< for the service socket
};

/// One reported number. `samples` is how many measurements the value was
/// reduced from (1 for a single measurement or an exact count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 1;
  std::string note;
};

/// Correctness accounting: every operation the benchmark attempts (a timed
/// run, a request, a grid job, a central cross-check) is counted, and any
/// that threw, was refused or produced a wrong answer counts as failed.
class Checks {
 public:
  /// Records one attempted operation; `ok` false counts it as failed and
  /// keeps `what` for the report.
  void op(bool ok, const std::string& what);
  /// Records `n` attempted operations that all succeeded.
  void ok_ops(long n) { attempted_ += n; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;  // first few messages only
};

/// What one workload run produces. `end_to_end` holds the workload's
/// metrics under their own names (setup_s, dense_rounds_per_s,
/// fresh_p99_ms, ...); `primary` and `secondary` name the two of them that
/// BENCHMARK.json bounds as primary_ms and secondary_ms (see as_ms);
/// `per_layer` is filled by the traced run only.
struct Report {
  std::vector<Metric> end_to_end;
  /// The traced run repeats one set-up and the timed pass with spans on;
  /// these are the end-to-end values of that repeat, so the tracing
  /// overhead shows.
  std::vector<Metric> end_to_end_traced;
  std::vector<Metric> per_layer;
  std::string primary;
  std::string secondary;
  std::vector<std::pair<std::string, std::string>> facts;
  Checks checks;

  void e2e(const std::string& name, double value, const std::string& unit,
           long samples, const std::string& note = {});
  void layer(const std::string& name, double value, const std::string& unit,
             long samples = 1, const std::string& note = {});
  void fact(const std::string& key, const std::string& value);
};

/// Looks up a metric by name; null when absent.
const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name);

/// A metric in milliseconds: a time ("s", "ms") converted, a rate ("x/s")
/// inverted to milliseconds per x.
double as_ms(const Metric& m);

constexpr int kSetups = 3;  ///< setup_s is the median of this many

/// The phases every workload shares. `setup` makes one complete set-up,
/// including one untimed warm-up iteration, and returns the seconds it
/// timed (so it can leave the benchmark's own checking work out). `pass`
/// makes one timed pass of --seconds and appends its end-to-end metrics.
struct Phases {
  std::function<double()> setup;
  std::string setup_note;
  std::function<void(std::vector<Metric>&)> pass;
};

/// Runs `setup` kSetups times and `pass` once, both with tracing off, and
/// reports setup_s (the median set-up) and peak_rss_mb after them. With
/// --trace 1 it then turns spans on and makes one more set-up and one more
/// pass, whose values go to end_to_end_traced; spans stay on for the
/// workload's further per-layer measurements. Returns the index of the
/// first span of the traced pass (see Tracer::layer_times).
std::size_t run_phases(const Options& options, Report& report,
                       const Phases& phases);

/// Calls `iteration` until it has run `min_runs` times and `seconds` have
/// passed.
void repeat_for(double seconds, int min_runs,
                const std::function<void()>& iteration);

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Microseconds since the first call in this process (the trace epoch).
double now_us();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]. Requires a non-empty input.
double quantile(std::vector<double> values, double q);

/// Peak and current resident set of this process, in MiB (/proc).
double peak_rss_mb();
double current_rss_mb();

/// Machine facts every result carries: hardware threads, cache sizes from
/// sysfs, CPU model, build type and compiler.
void add_machine_facts(Report& report);
/// Size in bytes of the cache at `level` (2 or 3) from sysfs; 0 if unknown.
std::uint64_t cache_bytes(int level);

/// Derives an independent 64-bit value from the run seed and a stream tag,
/// so every input family (graphs, angles, arrivals, ...) has its own
/// stream and the library sees only generated values.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

std::string format_double(double v);

Report run_million_lb(const Options& options);
Report run_paper_grid(const Options& options);
Report run_service_mix(const Options& options);
Report run_statevector(const Options& options);

}  // namespace perfbench
