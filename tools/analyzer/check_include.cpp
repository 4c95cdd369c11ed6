// Include-hygiene check (IWYU-lite), project headers only.
//
// Rules:
//   include/unused      a direct "project" include none of whose declared
//                       symbols the including file mentions. System
//                       includes are out of scope (no std symbol table);
//                       #if-guarded includes are skipped (the analyzer does
//                       not evaluate preprocessor conditions).
//   include/transitive  a symbol that is declared in exactly one project
//                       header, used by this file, but only reachable
//                       through transitive includes — the file must name
//                       the header it depends on.
//
// A .cpp file is credited with its own header's direct includes (the
// repo convention keeps interface dependencies in the header).
//
// Include paths resolve against src/ (the compile include dir) first, then
// against the including file's own directory — bench/ files name
// "harness.hpp" same-directory style.
//
// Symbol extraction lives in the shared per-file symbol table
// (SourceFile::symbols().namespace_decls + SourceFile::defines); see
// source.hpp for the heuristics.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "check.hpp"

namespace qdc::analyze {
namespace {

/// Rel path of the corpus file an include directive lands on, or "".
std::string resolve_include(const AnalysisContext& ctx, const std::string& rel,
                            const std::string& path) {
  std::string target = "src/" + path;
  if (ctx.find(target) != nullptr) return target;
  std::size_t slash = rel.rfind('/');
  if (slash != std::string::npos) {
    target = rel.substr(0, slash + 1) + path;
    if (ctx.find(target) != nullptr) return target;
  }
  return "";
}

class IncludeHygieneCheck final : public Check {
 public:
  const char* name() const override { return "include-hygiene"; }
  const char* description() const override {
    return "unused direct includes; symbols reached only transitively";
  }
  std::vector<RuleMeta> rules() const override {
    return {
        {"include/unused",
         "direct project include whose declared symbols the file never "
         "mentions"},
        {"include/transitive",
         "symbol used here is declared in a header reached only through "
         "transitive includes"},
    };
  }

  void run_file(const AnalysisContext& ctx, const SourceFile& f,
                std::vector<Diagnostic>& out) const override {
    // Per-file symbol sets and the headers-declaring counts live on the
    // context (built once, read-only).
    std::string own_header;
    if (!f.is_header)
      own_header = f.rel.substr(0, f.rel.size() - 4) + ".hpp";

    std::set<std::string> direct;  // rel paths of directly-named headers
    for (const Include& inc : f.includes) {
      if (inc.angled) continue;
      std::string target = resolve_include(ctx, f.rel, inc.path);
      if (target.empty()) continue;
      direct.insert(target);

      if (inc.cond_depth > 0) continue;       // cannot evaluate #if
      if (target == own_header) continue;     // never "unused"
      const std::set<std::string>& syms = ctx.symbols_of(target);
      if (syms.empty()) continue;             // nothing extracted: skip
      bool used = false;
      for (const std::string& s : syms)
        if (f.uses(s)) {
          used = true;
          break;
        }
      if (!used) {
        out.push_back({"include/unused", f.rel, inc.line, inc.path,
                       "no symbol declared in \"" + inc.path + "\" is "
                       "mentioned here; drop the include (or baseline it "
                       "with a justification if it is a deliberate "
                       "re-export)"});
      }
    }

    // Credit a .cpp with its own header's direct includes.
    std::set<std::string> credited = direct;
    if (!own_header.empty()) {
      if (const SourceFile* h = ctx.find(own_header)) {
        credited.insert(own_header);
        for (const Include& inc : h->includes) {
          if (inc.angled) continue;
          std::string t = resolve_include(ctx, h->rel, inc.path);
          if (!t.empty()) credited.insert(t);
        }
      }
    }

    // Reachable closure over project includes.
    std::set<std::string> reachable;
    std::vector<std::string> queue(credited.begin(), credited.end());
    while (!queue.empty()) {
      std::string cur = queue.back();
      queue.pop_back();
      if (!reachable.insert(cur).second) continue;
      if (const SourceFile* h = ctx.find(cur))
        for (const Include& inc : h->includes) {
          if (inc.angled) continue;
          std::string t = resolve_include(ctx, h->rel, inc.path);
          if (!t.empty()) queue.push_back(t);
        }
    }

    // Symbols available through credited headers or the file itself.
    std::set<std::string> provided = ctx.symbols_of(f.rel);
    for (const std::string& h : credited) {
      const std::set<std::string>& syms = ctx.symbols_of(h);
      provided.insert(syms.begin(), syms.end());
    }

    for (const std::string& h : reachable) {
      if (credited.count(h) != 0 || h == f.rel) continue;
      std::vector<std::string> hits;
      for (const std::string& s : ctx.symbols_of(h)) {
        if (ctx.header_decl_count(s) != 1) continue;  // ambiguous name
        if (provided.count(s) != 0) continue;
        if (f.uses(s)) hits.push_back(s);
      }
      if (hits.empty()) continue;
      std::string shown;
      for (std::size_t i = 0; i < hits.size() && i < 3; ++i)
        shown += (i != 0 ? ", " : "") + hits[i];
      if (hits.size() > 3) shown += ", ...";
      std::string path =
          h.compare(0, 4, "src/") == 0 ? h.substr(4) : h;  // as written
      out.push_back({"include/transitive", f.rel,
                     f.first_use_line(hits.front()), path,
                     "uses " + shown + " declared in \"" + path + "\" but "
                     "reaches it only transitively; include it directly"});
    }
  }
};

QDC_ANALYZE_REGISTER(IncludeHygieneCheck)

}  // namespace
}  // namespace qdc::analyze
