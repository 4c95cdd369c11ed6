// Check interface and registry for qdc_analyze.
//
// A check is a stateless object that inspects the corpus and emits
// diagnostics. File-scoped work goes in run_file (called once per file);
// whole-corpus work goes in run_corpus (called once, after every
// run_file). Both only read the AnalysisContext. Checks self-register
// through QDC_ANALYZE_REGISTER so adding one is: write a .cpp in
// tools/analyzer/, register it, list it in the CMake target, add a
// firing + clean fixture under tests/analyzer_fixtures.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "source.hpp"

namespace qdc::analyze {

struct Diagnostic {
  std::string rule;     ///< "family/rule", e.g. "layering/illegal-edge"
  std::string file;     ///< rel path ("" for corpus-level findings)
  int line = 0;
  std::string detail;   ///< stable, line-independent fingerprint payload
  std::string message;  ///< human-readable explanation

  /// Baseline key. Deliberately excludes the line number so suppressions
  /// survive unrelated edits to the file.
  std::string fingerprint() const { return rule + "|" + file + "|" + detail; }

  /// The "family" half of the rule id ("layering" of "layering/cycle").
  std::string family() const { return rule.substr(0, rule.find('/')); }
};

/// Sort by (file, line, rule, detail) for deterministic reports; ties keep
/// the order the checks emitted them in.
void sort_diagnostics(std::vector<Diagnostic>& diags);

/// Everything a check may consult: the analysis root, the corpus, per-file
/// symbol maps, and the cross-TU call graph. Built once, read-only
/// afterward.
struct AnalysisContext {
  AnalysisContext(std::string root_dir, const std::vector<SourceFile>& corpus)
      : root(std::move(root_dir)), files(&corpus), graph_(corpus) {
    for (const SourceFile& f : corpus) {
      index_.emplace(f.rel, &f);
      std::set<std::string> syms = f.symbols().namespace_decls;
      syms.insert(f.defines.begin(), f.defines.end());
      if (f.is_header)
        for (const std::string& s : syms) ++header_decl_count_[s];
      file_symbols_.emplace(f.rel, std::move(syms));
    }
  }

  /// Repository root the corpus was loaded from; checks that read files
  /// outside the corpus (Markdown docs) resolve them against it.
  std::string root;
  const std::vector<SourceFile>* files = nullptr;

  /// rel path -> file, via an index built once at construction (the corpus
  /// is immutable for the lifetime of a run).
  const SourceFile* find(const std::string& rel) const {
    auto it = index_.find(rel);
    return it == index_.end() ? nullptr : it->second;
  }

  /// The cross-TU symbol index and call graph.
  const CallGraph& graph() const { return graph_; }

  /// rel path -> symbols the file declares (namespace_decls + defines).
  const std::set<std::string>& symbols_of(const std::string& rel) const {
    static const std::set<std::string> kEmpty;
    auto it = file_symbols_.find(rel);
    return it == file_symbols_.end() ? kEmpty : it->second;
  }

  /// symbol -> number of corpus headers declaring it (include-hygiene's
  /// "declared in exactly one header" test).
  int header_decl_count(const std::string& symbol) const {
    auto it = header_decl_count_.find(symbol);
    return it == header_decl_count_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, const SourceFile*> index_;
  std::map<std::string, std::set<std::string>> file_symbols_;
  std::map<std::string, int> header_decl_count_;
  CallGraph graph_;
};

/// Static metadata for one rule, surfaced in the SARIF report so the CI
/// artifact is navigable without the source of the check.
struct RuleMeta {
  const char* id;       ///< "family/rule"
  const char* summary;  ///< one line: what firing means
};

class Check {
 public:
  virtual ~Check() = default;
  virtual const char* name() const = 0;         ///< family name
  virtual const char* description() const = 0;  ///< one line, for --list-checks
  virtual std::vector<RuleMeta> rules() const = 0;  ///< all rule ids + summaries

  /// Per-file analysis (read ctx, write only `out`).
  virtual void run_file(const AnalysisContext& ctx, const SourceFile& file,
                        std::vector<Diagnostic>& out) const {
    (void)ctx;
    (void)file;
    (void)out;
  }

  /// Whole-corpus analysis (cycles, cross-file aggregation, docs).
  virtual void run_corpus(const AnalysisContext& ctx,
                          std::vector<Diagnostic>& out) const {
    (void)ctx;
    (void)out;
  }
};

/// All registered checks, in registration order (link order of the .cpps).
const std::vector<const Check*>& check_registry();

namespace detail {
struct CheckRegistrar {
  explicit CheckRegistrar(const Check* check);
};
}  // namespace detail

#define QDC_ANALYZE_REGISTER(CheckType)                        \
  namespace {                                                  \
  const CheckType g_instance_##CheckType;                      \
  const ::qdc::analyze::detail::CheckRegistrar                 \
      g_registrar_##CheckType(&g_instance_##CheckType);        \
  }

}  // namespace qdc::analyze
