// Repo conventions no generic tool knows about.
//
// Rules (on src/ files unless noted):
//   lint/pragma-once        a header's first code line is `#pragma once`
//                           (no include guards, no unguarded headers).
//   lint/no-raw-random      no rand()/srand(): randomness flows through
//                           util/rng.hpp (a seeded Rng&) or the Network's
//                           shared tape, so every run is reproducible from
//                           its seed. std::random_device in src/ is
//                           determinism/wall-clock's finding. On tests/ and
//                           bench/ the rule also bans std::random_device and
//                           the std <random> engines (std::mt19937, ...): a
//                           figure must come from a seeded Rng alone.
//   lint/no-iostream        no <iostream>/<cstdio>/<stdio.h>, cout/cerr/
//                           clog (std:: or unqualified) or printf-family
//                           calls. Reporting belongs to tests, benches and
//                           examples.
//   lint/throw-via-macro    every `throw` goes through QDC_EXPECT/QDC_CHECK,
//                           so model violations carry file/line context
//                           (src/util/expect.{hpp,cpp} implement them).
//   lint/include-order      a .cpp's own header first, then <system>
//                           headers, then "project" headers, each block
//                           sorted. #if-guarded includes take no part.
//   lint/namespace-hygiene  no file-scope `using namespace`; every file
//                           declares something inside namespace qdc.
//   lint/doc-drift          every bench/bench_*.cpp is named in
//                           EXPERIMENTS.md and docs/EXPERIMENT_PIPELINE.md;
//                           the wire lists of src/service/wire.hpp match
//                           docs/SERVICE.md (a `#### <Name>` section per
//                           message type, an Error codes row per code, the
//                           AdminResponse counters in list order); every
//                           registered check family is named in
//                           tools/analyzer/README.md.
//
// Token rules report at most one diagnostic per line and rule.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check.hpp"

namespace qdc::analyze {
namespace {

namespace fs = std::filesystem;

/// First offset at or after `i` that is not a blank within the line.
std::size_t skip_blank(const std::string& s, std::size_t i) {
  while (i < s.size() && s[i] != '\n' &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0)
    ++i;
  return i;
}

/// s[begin, end) with leading and trailing whitespace removed.
std::string trim_line(const std::string& s, std::size_t begin,
                      std::size_t end) {
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

/// `line` starts with the word `kw` followed by at least one blank; returns
/// the offset after the blanks (0 when it does not).
std::size_t after_word(const std::string& line, const char* kw) {
  std::string w(kw);
  if (line.compare(0, w.size(), w) != 0 || line.size() <= w.size() ||
      !std::isspace(static_cast<unsigned char>(line[w.size()])))
    return 0;
  return skip_space(line, w.size());
}

/// Offsets of every whole-token `word` in `code` whose next non-blank
/// character on the same line is `next` ('\0': any).
std::vector<std::size_t> token_hits(const std::string& code, const char* word,
                                    char next) {
  std::vector<std::size_t> hits;
  std::string w(word);
  for (std::size_t pos = 0;
       (pos = find_token(code, w, pos)) != std::string::npos;
       pos += w.size()) {
    std::size_t j = skip_blank(code, pos + w.size());
    if (next == '\0' || (j < code.size() && code[j] == next))
      hits.push_back(pos);
  }
  return hits;
}

/// (offset, name) of every `std::<name>` spelled as one token run.
std::vector<std::pair<std::size_t, std::string>> std_names(
    const std::string& code) {
  std::vector<std::pair<std::size_t, std::string>> out;
  for (std::size_t pos : token_hits(code, "std", ':'))
    if (code.compare(pos + 3, 2, "::") == 0)
      out.emplace_back(pos, read_ident_at(code, pos + 5));
  return out;
}

/// The code before `pos` ends in `.`, `->` or `::` (blanks skipped), so
/// the token at `pos` is a member or a qualified name.
bool is_member_or_qualified(const std::string& code, std::size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(code[pos - 1])))
    --pos;
  if (pos == 0) return false;
  const char c = code[pos - 1];
  const char b = pos >= 2 ? code[pos - 2] : '\0';
  return c == '.' || (c == '>' && b == '-') || (c == ':' && b == ':');
}

/// The token at `pos` is the name a declaration declares: the code before
/// it (blanks and one `*` or `&` skipped) ends in a type, i.e. a template's
/// closing `>` or an identifier that is not a keyword taking an
/// expression. `int cout = 0;` and `std::ostream& cout` qualify; `cout <<`
/// at a statement start, `return cout`, `f(&cout)` and `ok && cout` do not.
bool is_declarator(const std::string& code, std::size_t pos) {
  const auto skip_back = [&] {
    while (pos > 0 && std::isspace(static_cast<unsigned char>(code[pos - 1])))
      --pos;
  };
  skip_back();
  if (pos > 0 && (code[pos - 1] == '*' || code[pos - 1] == '&')) {
    --pos;
    if (pos > 0 && (code[pos - 1] == '*' || code[pos - 1] == '&'))
      return false;
    skip_back();
  }
  if (pos == 0) return false;
  if (code[pos - 1] == '>') return true;
  static const std::set<std::string> kExpressionKeywords = {
      "return", "co_return", "co_yield", "throw", "case", "else", "do"};
  const std::string word = ident_before(code, pos);
  return !word.empty() && kExpressionKeywords.count(word) == 0;
}

/// (offset, name) of every rand( / srand( call.
std::vector<std::pair<std::size_t, std::string>> rand_calls(
    const std::string& code) {
  std::vector<std::pair<std::size_t, std::string>> out;
  for (const char* fn : {"rand", "srand"})
    for (std::size_t pos : token_hits(code, fn, '(')) out.emplace_back(pos, fn);
  return out;
}

bool is_std_engine(const std::string& name) {
  static const std::set<std::string> kEngines = {
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "knuth_b"};
  return kEngines.count(name) != 0 ||
         (name.size() > 6 && name.compare(0, 6, "ranlux") == 0);
}

class LintCheck final : public Check {
 public:
  const char* name() const override { return "lint"; }
  const char* description() const override {
    return "pragma once, seeded randomness, no console I/O, throw via "
           "macro, include order, namespace hygiene, doc drift";
  }
  std::vector<RuleMeta> rules() const override {
    return {
        {"lint/pragma-once", "header does not start with #pragma once"},
        {"lint/no-raw-random",
         "randomness bypasses the seeded Rng (rand/srand; in tests/ and "
         "bench/ also std::random_device and std <random> engines)"},
        {"lint/no-iostream", "console I/O in library code"},
        {"lint/throw-via-macro", "throw outside QDC_EXPECT / QDC_CHECK"},
        {"lint/include-order",
         "includes not in own-header, <system>, \"project\" order, each "
         "block sorted"},
        {"lint/namespace-hygiene",
         "file-scope using-namespace, or nothing declared in namespace qdc"},
        {"lint/doc-drift",
         "bench binary, wire list entry or check family missing from its "
         "document"},
    };
  }

  void run_file(const AnalysisContext& ctx, const SourceFile& f,
                std::vector<Diagnostic>& out) const override {
    if (f.rel.rfind("tests/", 0) == 0 || f.rel.rfind("bench/", 0) == 0) {
      check_aux_random(f, out);
      return;
    }
    if (f.rel.rfind("src/", 0) != 0) return;
    check_lines(f, out);
    check_tokens(ctx, f, out);
    check_include_order(f, out);
  }

  void run_corpus(const AnalysisContext& ctx,
                  std::vector<Diagnostic>& out) const override {
    check_bench_docs(ctx, out);
    check_wire_docs(ctx, out);
    check_analyzer_readme(ctx, out);
  }

 private:
  /// Emits one diagnostic per line: the first hit (by offset) wins.
  static void emit_per_line(
      const SourceFile& f,
      std::vector<std::pair<std::size_t, std::string>> hits, const char* rule,
      const std::string& message, std::vector<Diagnostic>& out) {
    std::sort(hits.begin(), hits.end());
    int last = 0;
    for (const auto& [pos, detail] : hits) {
      int line = f.line_of(pos);
      if (line == last) continue;
      last = line;
      out.push_back({rule, f.rel, line, detail, message});
    }
  }

  static void check_aux_random(const SourceFile& f,
                               std::vector<Diagnostic>& out) {
    std::vector<std::pair<std::size_t, std::string>> hits = rand_calls(f.code);
    for (const auto& [pos, name] : std_names(f.code))
      if (name == "random_device" || is_std_engine(name))
        hits.emplace_back(pos, "std::" + name);
    emit_per_line(f, std::move(hits), "lint/no-raw-random",
                  "tests/ and bench/ must draw randomness from a seeded Rng "
                  "(util/rng.hpp) so every figure is reproducible from its "
                  "seed",
                  out);
  }

  /// pragma-once, no-iostream includes and both namespace-hygiene arms:
  /// the rules that read one stripped line at a time.
  static void check_lines(const SourceFile& f, std::vector<Diagnostic>& out) {
    const std::string& code = f.code;
    int first_code_line = 0;
    bool in_qdc = false;
    int depth = 0;  // brace depth at line start: 0 is file scope
    int lineno = 0;
    for (std::size_t begin = 0; begin <= code.size();) {
      std::size_t end = std::min(code.find('\n', begin), code.size());
      std::string line = trim_line(code, begin, end);
      ++lineno;
      if (!line.empty() && first_code_line == 0) {
        first_code_line = lineno;
        if (f.is_header && line != "#pragma once")
          out.push_back({"lint/pragma-once", f.rel, lineno, "first-line",
                         "first preprocessor token in a header must be "
                         "`#pragma once`"});
      }
      if (!line.empty() && line[0] == '#') {
        std::size_t i = skip_space(line, 1);
        if (line.compare(i, 7, "include") == 0) {
          i = skip_space(line, i + 7);
          for (const char* banned : {"<iostream>", "<cstdio>", "<stdio.h>"})
            if (line.compare(i, std::string(banned).size(), banned) == 0)
              out.push_back({"lint/no-iostream", f.rel, lineno, banned,
                             kIoMessage});
        }
      }
      std::size_t k = after_word(line, "using");
      if (depth == 0 && k != 0 && read_ident_at(line, k) == "namespace")
        out.push_back({"lint/namespace-hygiene", f.rel, lineno,
                       "using-namespace",
                       "no file-scope `using namespace` in src/"});
      std::string rest = line.substr(after_word(line, "inline"));
      if ((k = after_word(rest, "namespace")) != 0) {
        std::size_t j = k;
        while (j < rest.size() && (is_ident_char(rest[j]) || rest[j] == ':'))
          ++j;
        std::string name = rest.substr(k, j - k);
        in_qdc = in_qdc || name == "qdc" || name.rfind("qdc::", 0) == 0;
      }
      for (std::size_t i = begin; i < end; ++i)
        depth += code[i] == '{' ? 1 : code[i] == '}' ? -1 : 0;
      begin = end + 1;
    }
    if (f.is_header && first_code_line == 0)
      out.push_back({"lint/pragma-once", f.rel, 1, "missing",
                     "header has no `#pragma once`"});
    if (!in_qdc)
      out.push_back({"lint/namespace-hygiene", f.rel,
                     first_code_line == 0 ? 1 : first_code_line,
                     "no-qdc-namespace",
                     "src/ file declares nothing inside namespace qdc"});
  }

  /// Whether `name` at `pos` is a parameter or local of a function whose
  /// body encloses `pos`.
  static bool names_local(const AnalysisContext& ctx, const SourceFile& f,
                          std::size_t pos, const std::string& name) {
    for (const FunctionDef* fn : ctx.graph().functions_in_file(f.rel))
      if (fn->body_begin < pos && pos < fn->body_end &&
          fn->locals.count(name) != 0)
        return true;
    return false;
  }

  static void check_tokens(const AnalysisContext& ctx, const SourceFile& f,
                           std::vector<Diagnostic>& out) {
    emit_per_line(f, rand_calls(f.code), "lint/no-raw-random",
                  "use util/rng.hpp (seeded Rng&) or the shared tape; "
                  "rand()/srand() break reproducibility",
                  out);

    std::vector<std::pair<std::size_t, std::string>> io;
    for (const auto& [pos, name] : std_names(f.code))
      if (name == "cout" || name == "cerr" || name == "clog")
        io.emplace_back(pos, "std::" + name);
    // Unqualified streams, as after a `using namespace std;`; a member,
    // variable, parameter or local that is merely named like one is not a
    // stream.
    for (const char* stream : {"cout", "cerr", "clog"})
      for (std::size_t pos : token_hits(f.code, stream, '\0'))
        if (!is_member_or_qualified(f.code, pos) &&
            !is_declarator(f.code, pos) &&
            !names_local(ctx, f, pos, stream))
          io.emplace_back(pos, stream);
    for (const char* fn : {"printf", "fprintf", "sprintf"})
      for (std::size_t pos : token_hits(f.code, fn, '('))
        io.emplace_back(pos, fn);
    emit_per_line(f, std::move(io), "lint/no-iostream", kIoMessage, out);

    if (f.rel == "src/util/expect.hpp" || f.rel == "src/util/expect.cpp")
      return;
    std::vector<std::pair<std::size_t, std::string>> throws;
    for (std::size_t pos : token_hits(f.code, "throw", '\0')) {
      std::size_t j = skip_blank(f.code, pos + 5);
      if (j >= f.code.size() || f.code[j] != ';')
        throws.emplace_back(pos, "throw");
    }
    emit_per_line(f, std::move(throws), "lint/throw-via-macro",
                  "throw only via QDC_EXPECT / QDC_CHECK (util/expect.hpp)",
                  out);
  }

  static void check_include_order(const SourceFile& f,
                                  std::vector<Diagnostic>& out) {
    std::vector<const Include*> incs;
    for (const Include& inc : f.includes)
      if (inc.cond_depth == 0) incs.push_back(&inc);
    std::size_t start = 0;
    if (!f.is_header && !incs.empty() && !incs[0]->angled &&
        "src/" + incs[0]->path ==
            f.rel.substr(0, f.rel.size() - 4) + ".hpp")
      start = 1;  // own header first is the expected layout
    bool seen_quote = false;
    std::string prev[2];  // [angled]
    for (std::size_t k = start; k < incs.size(); ++k) {
      const Include& inc = *incs[k];
      if (inc.angled && seen_quote) {
        out.push_back({"lint/include-order", f.rel, inc.line, inc.path,
                       "<" + inc.path + "> appears after a project include; "
                       "system headers come first"});
        continue;
      }
      seen_quote = seen_quote || !inc.angled;
      std::string& last = prev[inc.angled ? 1 : 0];
      if (!last.empty() && inc.path < last)
        out.push_back({"lint/include-order", f.rel, inc.line, inc.path,
                       "include '" + inc.path + "' is not in alphabetical "
                       "order (after '" + last + "')"});
      last = inc.path;
    }
  }

  static void check_bench_docs(const AnalysisContext& ctx,
                               std::vector<Diagnostic>& out) {
    if (!fs::is_directory(fs::path(ctx.root) / "bench")) return;
    std::vector<std::pair<std::string, std::string>> docs;  // rel, text
    for (const char* rel : {"EXPERIMENTS.md", "docs/EXPERIMENT_PIPELINE.md"}) {
      if (fs::is_regular_file(fs::path(ctx.root) / rel))
        docs.emplace_back(rel, read_file_text(ctx.root + "/" + rel));
      else
        out.push_back({"lint/doc-drift", rel, 1, "missing",
                       "experiment doc is missing"});
    }
    for (const SourceFile& f : *ctx.files) {
      if (f.rel.rfind("bench/bench_", 0) != 0 || f.is_header) continue;
      std::string bench = f.rel.substr(6, f.rel.size() - 10);
      for (const auto& [rel, text] : docs)
        if (text.find(bench) == std::string::npos)
          out.push_back({"lint/doc-drift", f.rel, 1, rel,
                         "bench binary '" + bench + "' is not mentioned in " +
                             rel});
    }
  }

  /// (offset, name) of every entry of the X-macro list `macro` in `code`:
  /// the first identifier inside each `X(` of the `#define macro(X)`
  /// body, which runs to the first line without a trailing backslash.
  static std::vector<std::pair<std::size_t, std::string>> list_entries(
      const std::string& code, const std::string& macro) {
    std::vector<std::pair<std::size_t, std::string>> out;
    std::size_t pos = 0;
    for (; (pos = find_token(code, macro, pos)) != std::string::npos;
         pos += macro.size()) {
      std::size_t bol = code.rfind('\n', pos);
      std::string head = trim_line(code, bol == std::string::npos ? 0 : bol + 1,
                                   pos);
      if (!head.empty() && head[0] == '#' &&
          read_ident_at(head, skip_space(head, 1)) == "define")
        break;
    }
    if (pos == std::string::npos) return out;
    std::size_t open = skip_blank(code, pos + macro.size());
    if (open >= code.size() || code[open] != '(') return out;
    const std::string param = read_ident_at(code, skip_blank(code, open + 1));
    std::size_t end = open;
    for (;;) {
      end = std::min(code.find('\n', end), code.size());
      std::size_t last = end;
      while (last > open && (code[last - 1] == ' ' || code[last - 1] == '\t'))
        --last;
      if (end == code.size() || code[last - 1] != '\\') break;
      ++end;
    }
    for (std::size_t x : token_hits(code, param.c_str(), '('))
      if (x > open && x < end)
        out.emplace_back(
            x, read_ident_at(code, skip_blank(code, code.find('(', x) + 1)));
    return out;
  }

  /// Every wire list in src/service/wire.hpp against docs/SERVICE.md: a
  /// `#### Name` section per message type, an Error codes table row per
  /// error code, and a `u64 name` line under `#### AdminResponse` per admin
  /// counter, in list order.
  static void check_wire_docs(const AnalysisContext& ctx,
                              std::vector<Diagnostic>& out) {
    const std::string wire_rel = "src/service/wire.hpp";
    const SourceFile* wire = ctx.find(wire_rel);
    if (wire == nullptr) return;
    const std::string doc_rel = "docs/SERVICE.md";
    if (!fs::is_regular_file(fs::path(ctx.root) / doc_rel)) {
      out.push_back({"lint/doc-drift", doc_rel, 1, "missing",
                     "wire-protocol spec docs/SERVICE.md is missing"});
      return;
    }
    std::set<std::string> sections;        // `#### Name` headings
    std::set<std::string> error_rows;      // Error codes table: code cells
    std::vector<std::string> admin_lines;  // `u64 name` under AdminResponse
    std::string heading;                   // text of the latest heading
    std::string doc = read_file_text(ctx.root + "/" + doc_rel);
    for (std::size_t begin = 0; begin < doc.size();) {
      std::size_t end = std::min(doc.find('\n', begin), doc.size());
      std::string line = trim_line(doc, begin, end);
      begin = end + 1;
      if (!line.empty() && line[0] == '#') {
        std::size_t i = line.find_first_not_of('#');
        heading = i == std::string::npos ? "" : trim_line(line, i, line.size());
        std::string name = read_ident_at(heading, 0);
        if (line.rfind("#### ", 0) == 0 && !name.empty() && name == heading)
          sections.insert(name);
      } else if (heading == "Error codes" && !line.empty() && line[0] == '|') {
        std::size_t cell = line.find('|', 1);
        if (cell != std::string::npos)
          error_rows.insert(trim_line(line, cell + 1,
                                      std::min(line.find('|', cell + 1),
                                               line.size())));
      } else if (heading == "AdminResponse" && after_word(line, "u64") != 0) {
        admin_lines.push_back(read_ident_at(line, after_word(line, "u64")));
      }
    }

    auto report = [&](std::size_t pos, const std::string& detail,
                      const std::string& message) {
      out.push_back({"lint/doc-drift", wire_rel, wire->line_of(pos), detail,
                     message});
    };
    auto entries = [&](const char* macro) {
      auto list = list_entries(wire->code, macro);
      if (list.empty())
        out.push_back({"lint/doc-drift", wire_rel, 1,
                       std::string("no-list:") + macro,
                       std::string("cannot find the ") + macro + " list"});
      return list;
    };
    for (const auto& [pos, name] : entries("QDC_MESSAGE_TYPES"))
      if (sections.count(name) == 0)
        report(pos, "MessageType::" + name,
               "message type '" + name + "' has no '#### " + name +
                   "' section in docs/SERVICE.md");
    for (const auto& [pos, name] : entries("QDC_ERROR_CODES"))
      if (error_rows.count(name) == 0)
        report(pos, "ErrorCode::" + name,
               "error code '" + name +
                   "' has no row in the Error codes table of docs/SERVICE.md");
    std::size_t next = 0;  // admin_lines index after the previous counter
    for (const auto& [pos, name] : entries("QDC_ADMIN_COUNTERS")) {
      auto it = std::find(admin_lines.begin(), admin_lines.end(), name);
      auto at = static_cast<std::size_t>(it - admin_lines.begin());
      if (it == admin_lines.end())
        report(pos, "AdminStats::" + name,
               "admin counter '" + name + "' has no 'u64  " + name +
                   "' line under '#### AdminResponse' in docs/SERVICE.md");
      else if (at < next)
        report(pos, "AdminStats::" + name,
               "admin counter '" + name + "' is out of list order under "
               "'#### AdminResponse' in docs/SERVICE.md");
      else
        next = at + 1;
    }
  }

  static void check_analyzer_readme(const AnalysisContext& ctx,
                                    std::vector<Diagnostic>& out) {
    fs::path dir = fs::path(ctx.root) / "tools" / "analyzer";
    if (!fs::is_directory(dir)) return;
    const std::string rel = "tools/analyzer/README.md";
    if (!fs::is_regular_file(dir / "README.md")) {
      out.push_back({"lint/doc-drift", rel, 1, "missing",
                     "analyzer README is missing"});
      return;
    }
    std::string text = read_file_text((dir / "README.md").string());
    for (const Check* check : check_registry())
      if (text.find(check->name()) == std::string::npos)
        out.push_back({"lint/doc-drift", rel, 1, check->name(),
                       std::string("check family '") + check->name() +
                           "' is not documented in " + rel});
  }

  static constexpr const char* kIoMessage =
      "library code must not perform console I/O; report through return "
      "values or RunStats";
};

QDC_ANALYZE_REGISTER(LintCheck)

}  // namespace
}  // namespace qdc::analyze
