// perfbench: one binary, four seeded workloads over the qdc libraries.
//
//   perfbench --workload million_lb|paper_grid|service_mix|statevector
//             --seed N --seconds S --trace 0|1 [--trace-out PATH]
//             [--scratch DIR]
//
// Prints a human-readable report (machine facts, every end-to-end metric
// with unit and sample count, the per-layer metrics of a traced run and
// the tracing overhead) and, as its last line, "PERFBENCH_RESULT {json}"
// for perfbench/run.py to turn into the benchmark's result line. Exits 1
// when any correctness check failed, 2 on a usage or fatal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--scratch DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(val);
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--trace-out") {
      o.trace_path = val;
    } else if (arg == "--scratch") {
      o.scratch_dir = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.trace_path.empty()) {
    o.trace_path = o.scratch_dir + "/perfbench-trace-" + o.workload + "-" +
                   std::to_string(o.seed) + ".json";
  }
  return o;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " +
           perfbench::format_double(m.value) +
           ", \"unit\": " + json_str(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void print_metric(const char* kind, const Metric& m) {
  std::printf("%-6s %-34s %14.6g %-9s n=%-6ld %s\n", kind, m.name.c_str(),
              m.value, m.unit.c_str(), m.samples, m.note.c_str());
}

/// The four metrics BENCHMARK.json bounds for every workload: setup_s and
/// peak_rss_mb as reported, primary_ms and secondary_ms read off the
/// end-to-end metrics the workload names for them.
std::vector<Metric> bounded_slots(const Report& report) {
  const auto get = [&report](const std::string& name) -> const Metric& {
    const Metric* m = perfbench::find_metric(report.end_to_end, name);
    if (m == nullptr) throw std::logic_error("no end-to-end metric " + name);
    return *m;
  };
  std::vector<Metric> slots = {get("setup_s"), get("peak_rss_mb")};
  for (const auto& [slot, source] :
       {std::pair{"primary_ms", report.primary},
        std::pair{"secondary_ms", report.secondary}}) {
    const Metric& m = get(source);
    slots.push_back({slot, perfbench::as_ms(m), "ms", m.samples,
                     "= " + source});
  }
  return slots;
}

/// Why an end-to-end metric has no traced value.
const char* untraced_reason(const std::string& name) {
  if (name == "peak_rss_mb") {
    return "a process-wide high-water mark, already reached before the "
           "traced repeat";
  }
  if (name == "fail_frac") return "counts the checks of the whole run";
  return "not repeated with spans on";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Report report;
  std::vector<Metric> slots;
  try {
    if (options.workload == "million_lb") {
      report = perfbench::run_million_lb(options);
    } else if (options.workload == "paper_grid") {
      report = perfbench::run_paper_grid(options);
    } else if (options.workload == "service_mix") {
      report = perfbench::run_service_mix(options);
    } else if (options.workload == "statevector") {
      report = perfbench::run_statevector(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    slots = bounded_slots(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  perfbench::add_machine_facts(report);
  report.fact("seed", std::to_string(options.seed));
  const perfbench::Checks& checks = report.checks;
  const double fail_frac =
      checks.attempted() > 0
          ? static_cast<double>(checks.failed()) /
                static_cast<double>(checks.attempted())
          : 1.0;
  report.e2e("fail_frac", fail_frac, "ratio", checks.attempted(),
             "failed " + std::to_string(checks.failed()) + " of " +
                 std::to_string(checks.attempted()) + " attempted");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [key, value] : report.facts) {
    std::printf("fact   %-34s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : report.end_to_end) print_metric("e2e", m);
  for (const Metric& m : slots) print_metric("slot", m);
  if (options.trace) {
    for (const Metric& m : report.per_layer) print_metric("layer", m);
    for (const Metric& plain : report.end_to_end) {
      const Metric* traced =
          perfbench::find_metric(report.end_to_end_traced, plain.name);
      if (traced == nullptr) {
        std::printf("overhead %-32s untraced %-12.6g no traced value: %s\n",
                    plain.name.c_str(), plain.value,
                    untraced_reason(plain.name));
        continue;
      }
      const double delta = traced->value - plain.value;
      std::printf("overhead %-32s untraced %-12.6g traced %-12.6g %s "
                  "(%+.2f%%)\n",
                  plain.name.c_str(), plain.value, traced->value,
                  plain.unit.c_str(),
                  plain.value != 0.0 ? 100.0 * delta / plain.value : 0.0);
    }
    const bool written =
        perfbench::Tracer::global().write_chrome(options.trace_path);
    std::printf("trace  %zu spans -> %s%s\n",
                perfbench::Tracer::global().span_count(),
                options.trace_path.c_str(), written ? "" : " (WRITE FAILED)");
    if (!written) report.checks.op(false, "trace file not written");
  }
  for (const std::string& f : checks.failures()) {
    std::printf("FAILED %s\n", f.c_str());
  }
  const bool correct = checks.failed() == 0;
  std::string facts = "{";
  for (std::size_t i = 0; i < report.facts.size(); ++i) {
    facts += (i ? ", " : "") + json_str(report.facts[i].first) + ": " +
             json_str(report.facts[i].second);
  }
  facts += "}";
  std::printf(
      "PERFBENCH_RESULT {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"slots\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
      "\"facts\": %s}\n",
      json_str(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      correct ? "true" : "false", checks.attempted(), checks.failed(),
      json_metrics(slots).c_str(),
      json_metrics(report.end_to_end).c_str(),
      json_metrics(report.per_layer).c_str(), facts.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
