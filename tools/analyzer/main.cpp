// qdc_analyze — compile-time enforcement of the invariants the runtime
// ModelAuditor / EngineDeterminism suite can only sample: module layering,
// determinism hazards, include hygiene, parallel-safety, contract coverage,
// their interprocedural closures (flow/), and the repo's lint conventions.
// See tools/analyzer/README.md.
//
// Usage:
//   qdc_analyze --root DIR [--family NAME]... [--baseline FILE]
//               [--format text|sarif] [--out FILE] [--show-baselined]
//               [--stats] [--write-baseline FILE]
//   qdc_analyze --root DIR --dump-callgraph
//   qdc_analyze --list-checks
//   qdc_analyze --selftest FIXTURE_DIR
//
// The corpus is fixed: src/ recursively plus the top level of bench/ and
// tests/ (see load_corpus). Files outside src/ have no module, so the
// module-scoped checks (layering, determinism, parallel, contract) skip
// them; include hygiene, flow and lint still apply.
//
// --family (repeatable) restricts the run to the named check families.
//
// --stats prints per-phase wall time, per-check time and per-family
// diagnostic counts to stderr (never into --out). Timing lives here in the
// harness: the wall-clock ban (determinism/wall-clock) covers src/, not
// tools/.
//
// --dump-callgraph prints the deterministic CallGraph::dump() of the
// corpus and exits; the call-graph fixtures golden-test this output.
//
// --selftest runs the golden fixtures (expected.txt per fixture dir, plus
// optional expected_callgraph.txt and baseline.txt).
//
// Exit codes: 0 clean (every diagnostic baselined), 1 new diagnostics (or
// a failed selftest), 2 usage / IO error.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "check.hpp"
#include "report.hpp"
#include "source.hpp"

namespace qdc::analyze {
namespace {

namespace fs = std::filesystem;

struct CheckStats {
  std::string check;
  double millis = 0.0;
  std::size_t emitted = 0;
};

struct PhaseStats {
  double load_ms = 0.0;    ///< discovery + read + lex
  double graph_ms = 0.0;   ///< AnalysisContext (symbol index + call graph)
  double checks_ms = 0.0;  ///< every check's run_file and run_corpus
  std::vector<CheckStats> checks;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool family_enabled(const std::vector<std::string>& families,
                    const char* name) {
  return families.empty() ||
         std::find(families.begin(), families.end(), name) != families.end();
}

std::vector<const Check*> enabled_checks(
    const std::vector<std::string>& families) {
  std::vector<const Check*> checks;
  for (const Check* c : check_registry())
    if (family_enabled(families, c->name())) checks.push_back(c);
  return checks;
}

std::vector<Diagnostic> analyze(const std::string& root,
                                const std::vector<std::string>& families,
                                PhaseStats* stats = nullptr) {
  auto t_load = std::chrono::steady_clock::now();
  std::vector<SourceFile> files = load_corpus(root);
  if (stats != nullptr) stats->load_ms = ms_since(t_load);

  auto t_graph = std::chrono::steady_clock::now();
  AnalysisContext ctx(root, files);
  if (stats != nullptr) stats->graph_ms = ms_since(t_graph);

  auto t_checks = std::chrono::steady_clock::now();
  std::vector<Diagnostic> diags;
  for (const Check* check : enabled_checks(families)) {
    auto t0 = std::chrono::steady_clock::now();
    std::size_t before = diags.size();
    for (const SourceFile& f : files) check->run_file(ctx, f, diags);
    check->run_corpus(ctx, diags);
    if (stats != nullptr)
      stats->checks.push_back(
          {check->name(), ms_since(t0), diags.size() - before});
  }
  if (stats != nullptr) stats->checks_ms = ms_since(t_checks);
  sort_diagnostics(diags);
  return diags;
}

/// Static metadata of every rule the run enables, for the SARIF report.
std::vector<RuleMeta> enabled_rules(const std::vector<std::string>& families) {
  std::vector<RuleMeta> rules;
  for (const Check* check : enabled_checks(families)) {
    std::vector<RuleMeta> r = check->rules();
    rules.insert(rules.end(), r.begin(), r.end());
  }
  return rules;
}

int run_selftest(const std::string& fixtures_dir) {
  std::vector<fs::path> cases;
  for (const auto& entry : fs::directory_iterator(fixtures_dir))
    if (entry.is_directory() &&
        (fs::exists(entry.path() / "expected.txt") ||
         fs::exists(entry.path() / "expected_callgraph.txt")))
      cases.push_back(entry.path());
  std::sort(cases.begin(), cases.end());
  if (cases.empty()) {
    std::cerr << "qdc_analyze: no fixtures (dirs with expected.txt or "
              << "expected_callgraph.txt) under " << fixtures_dir << "\n";
    return 2;
  }
  std::size_t failures = 0;
  auto compare = [&](const fs::path& dir, const char* what,
                     const std::string& want, const std::string& got) {
    if (got == want) {
      std::cout << "PASS " << dir.filename().string() << " (" << what
                << ")\n";
      return;
    }
    ++failures;
    std::cout << "FAIL " << dir.filename().string() << " (" << what
              << ")\n--- expected ---\n" << want << "--- actual ---\n"
              << got << "---\n";
  };
  for (const fs::path& dir : cases) {
    if (fs::exists(dir / "expected.txt")) {
      std::string got;
      try {
        // A fixture may ship its own baseline.txt; this is how the
        // suppression path itself gets golden-tested.
        Baseline baseline = load_baseline((dir / "baseline.txt").string());
        got = render_text(analyze(dir.string(), {}), baseline, false);
      } catch (const std::exception& e) {
        got = std::string("error: ") + e.what() + "\n";
      }
      compare(dir, "diagnostics",
              read_file_text((dir / "expected.txt").string()), got);
    }
    if (fs::exists(dir / "expected_callgraph.txt")) {
      std::string got;
      try {
        std::vector<SourceFile> files = load_corpus(dir.string());
        got = CallGraph(files).dump();
      } catch (const std::exception& e) {
        got = std::string("error: ") + e.what() + "\n";
      }
      compare(dir, "callgraph",
              read_file_text((dir / "expected_callgraph.txt").string()), got);
    }
  }
  std::cout << (failures == 0 ? "all" : "some") << " fixture checks done, "
            << failures << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

int run_main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> families;
  bool want_stats = false;
  std::string baseline_path;
  std::string format = "text";
  std::string out_path;
  std::string write_baseline_path;
  std::string selftest_dir;
  bool show_baselined = false;
  bool list_checks = false;
  bool dump_callgraph = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto need_value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= args.size())
        throw std::runtime_error(flag + " requires a value");
      return args[++i];
    };
    if (args[i] == "--root") root = need_value("--root");
    else if (args[i] == "--family") families.push_back(need_value("--family"));
    else if (args[i] == "--stats") want_stats = true;
    else if (args[i] == "--baseline") baseline_path = need_value("--baseline");
    else if (args[i] == "--format") format = need_value("--format");
    else if (args[i] == "--out") out_path = need_value("--out");
    else if (args[i] == "--write-baseline")
      write_baseline_path = need_value("--write-baseline");
    else if (args[i] == "--selftest") selftest_dir = need_value("--selftest");
    else if (args[i] == "--show-baselined") show_baselined = true;
    else if (args[i] == "--list-checks") list_checks = true;
    else if (args[i] == "--dump-callgraph") dump_callgraph = true;
    else throw std::runtime_error("unknown argument: " + args[i]);
  }

  if (list_checks) {
    for (const Check* c : check_registry())
      std::cout << c->name() << ": " << c->description() << "\n";
    return 0;
  }
  if (!selftest_dir.empty()) return run_selftest(selftest_dir);
  if (root.empty())
    throw std::runtime_error(
        "--root is required (or --selftest/--list-checks)");
  if (format != "text" && format != "sarif")
    throw std::runtime_error("--format must be text or sarif");

  for (const std::string& fam : families) {
    bool known = false;
    for (const Check* c : check_registry())
      if (fam == c->name()) known = true;
    if (!known)
      throw std::runtime_error("--family " + fam +
                               " matches no check (see --list-checks)");
  }

  if (dump_callgraph) {
    std::string text = CallGraph(load_corpus(root)).dump();
    if (out_path.empty()) {
      std::cout << text;
    } else {
      std::ofstream out(out_path);
      out << text;
    }
    return 0;
  }

  PhaseStats phase_stats;
  std::vector<Diagnostic> diags = analyze(root, families, &phase_stats);
  Baseline baseline = baseline_path.empty() ? Baseline{}
                                            : load_baseline(baseline_path);

  if (want_stats) {
    std::map<std::string, std::size_t> per_family;
    for (const Diagnostic& d : diags) ++per_family[d.family()];
    char buf[64];
    std::cerr << "qdc_analyze: --stats\n";
    std::snprintf(buf, sizeof(buf), "%8.2f", phase_stats.load_ms);
    std::cerr << "  phase load:   " << buf << " ms\n";
    std::snprintf(buf, sizeof(buf), "%8.2f", phase_stats.graph_ms);
    std::cerr << "  phase graph:  " << buf << " ms\n";
    std::snprintf(buf, sizeof(buf), "%8.2f", phase_stats.checks_ms);
    std::cerr << "  phase checks: " << buf << " ms\n";
    for (const CheckStats& s : phase_stats.checks) {
      std::snprintf(buf, sizeof(buf), "%8.2f", s.millis);
      std::cerr << "  check " << s.check << ": " << buf << " ms, "
                << s.emitted << " diagnostic(s)\n";
    }
    for (const auto& [family, count] : per_family)
      std::cerr << "  family " << family << ": " << count
                << " diagnostic(s)\n";
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    out << baseline_skeleton(diags);
    std::cout << "qdc_analyze: wrote " << diags.size()
              << " baseline entries to " << write_baseline_path << "\n";
    return 0;
  }

  std::size_t new_count = 0;
  for (const Diagnostic& d : diags)
    if (!baseline.covers(d)) ++new_count;

  std::string report = format == "sarif"
                           ? render_sarif(diags, baseline,
                                          enabled_rules(families))
                           : render_text(diags, baseline, show_baselined);
  if (out_path.empty()) {
    std::cout << report;
  } else {
    std::ofstream out(out_path);
    out << report;
  }

  if (format == "text") {
    for (const BaselineEntry* e : baseline.stale())
      std::cerr << "qdc_analyze: stale baseline entry (matched nothing): "
                << e->fingerprint << "\n";
    std::cerr << "qdc_analyze: " << diags.size() << " diagnostic(s), "
              << diags.size() - new_count << " baselined, " << new_count
              << " new\n";
  }
  return new_count == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qdc::analyze

int main(int argc, char** argv) {
  try {
    return qdc::analyze::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "qdc_analyze: " << e.what() << "\n";
    return 2;
  }
}
