// Shared harness for the figure benches: one flag parser, one sweep entry
// point, one timing/report format.
//
// Every figure bench starts main() with parse_harness_flags(), so all of
// them accept exactly --sweep-threads N and --out PATH and exit(2) on
// anything else (a serial bench has no sweep section for either to act
// on). Each bench runs one grid, the paper's full table; stdout holds only
// that table, and bench/golden/ pins it byte for byte.
//
// Every grid-shaped bench follows the same shape:
//
//   1. parse_harness_flags() reads the shared flags;
//   2. inputs that must reproduce the bench's historical random stream are
//      generated *serially* with the bench's legacy seed (generation is
//      cheap; the measured runs are not);
//   3. harness.sweep<Row>(...) executes the expensive, independent grid
//      points on a util::SweepRunner and returns rows in job-index order;
//   4. the bench prints the merged rows with the exact printf formats it
//      always used — stdout is byte-identical to the pre-harness serial
//      bench for every --sweep-threads value.
//
// The harness records per-job wall time for every section and, when --out
// was given, writes a small JSON report (sections, job counts, per-job
// seconds) so sweep cost can be tracked the same way BENCH_engine.json
// tracks engine cost. Timing never goes to stdout: adding --out must not
// change a bench's printed tables.
//
// Nested parallelism stays bounded: jobs run their inner
// RunOptions::threads = 1 (the default), and only the sweep level fans
// out. See docs/EXPERIMENT_PIPELINE.md for the tradeoff.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/sweep.hpp"

namespace qdc::bench {

/// Options shared by every figure bench.
struct HarnessOptions {
  int sweep_threads = 1;  ///< workers for the sweep layer; 0 = hardware
  std::string out;        ///< JSON timing-report path; empty = no report
};

/// Parses the shared flags. Prints usage and exits(2) on a malformed or
/// out-of-range flag value or on any argument that is not one of the
/// shared flags.
HarnessOptions parse_harness_flags(int argc, char** argv);

/// One bench's sweep executor + timing report.
class SweepHarness {
 public:
  SweepHarness(std::string bench_name, HarnessOptions options);

  /// Writes the JSON report if --out was given. Exits(1) if the path
  /// cannot be written.
  ~SweepHarness();

  /// Runs `job_count` independent jobs through the sweep runner, timing
  /// each, and returns their Row results in job-index order. Section names
  /// label the timing report only; they never reach stdout.
  template <typename Row>
  std::vector<Row> sweep(const std::string& section, int job_count,
                         const std::function<Row(const util::SweepJob&)>& job) {
    std::vector<Row> rows(static_cast<std::size_t>(job_count));
    run_section(section, job_count, [&](const util::SweepJob& j) {
      rows[static_cast<std::size_t>(j.index)] = job(j);
    });
    return rows;
  }

  /// Type-erased core of sweep(): per-job timing + deterministic ordering.
  void run_section(const std::string& section, int job_count,
                   const std::function<void(const util::SweepJob&)>& job);

 private:
  void write_report() const;

  struct Section {
    std::string name;
    int jobs = 0;
    double seconds = 0.0;                // wall time of the whole section
    std::vector<double> job_seconds;     // per-job wall time, index order
  };

  std::string bench_name_;
  HarnessOptions options_;
  util::SweepRunner runner_;
  std::vector<Section> sections_;
};

/// snprintf into a std::string — lets sweep jobs build table rows with the
/// same format strings main() would have passed to printf.
std::string strprintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace qdc::bench
