// Determinism-hazard check: flags constructs the runtime EngineDeterminism
// suite can only catch probabilistically.
//
// Rules:
//   determinism/unordered-iteration  iteration over a std::unordered_*
//       container (or an alias of one) in src/congest, src/dist, src/graph
//       or src/core whose loop body lets the iteration order escape — into
//       sends, merged stats, appended/returned containers, or compound
//       accumulation. Hash iteration order is implementation-defined, so
//       any escape breaks the bit-determinism the engine guarantees.
//   determinism/wall-clock           wall-clock or time-seeded calls in
//       src/ (chrono clocks, time(), random_device, ...). All randomness
//       and timing must flow through seeded Rng / RunStats.

#include <set>
#include <string>
#include <vector>

#include "check.hpp"

namespace qdc::analyze {
namespace {

/// Names of variables declared with an unordered container type (or an
/// alias of one) anywhere in the file, plus the aliases themselves.
void collect_unordered_names(const SourceFile& f, std::set<std::string>& vars,
                             std::set<std::string>& aliases) {
  const std::string& code = f.code;
  std::vector<std::string> type_spellings = {"std::unordered_map",
                                             "std::unordered_set",
                                             "std::unordered_multimap",
                                             "std::unordered_multiset"};
  // Two passes so an alias declared after its first use is still found.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::string> spellings = type_spellings;
    spellings.insert(spellings.end(), aliases.begin(), aliases.end());
    for (const std::string& ty : spellings) {
      std::size_t pos = 0;
      while ((pos = find_token(code, ty, pos)) != std::string::npos) {
        std::size_t i = pos + ty.size();
        // `using Alias = std::unordered_map<...>` declares an alias.
        std::size_t line_begin = code.rfind('\n', pos);
        line_begin = line_begin == std::string::npos ? 0 : line_begin + 1;
        std::string before = code.substr(line_begin, pos - line_begin);
        if (before.find("using") != std::string::npos &&
            before.find('=') != std::string::npos) {
          std::size_t eq = before.rfind('=');
          aliases.insert(ident_before(before, eq));
          pos = i;
          continue;
        }
        if (i < code.size() && code[skip_space(code, i)] == '<')
          i = match_bracket(code, skip_space(code, i), '<', '>');
        if (i == std::string::npos) break;
        i = skip_space(code, i);
        while (i < code.size() && (code[i] == '&' || code[i] == '*'))
          i = skip_space(code, i + 1);
        std::string var = read_ident_at(code, i);
        if (!var.empty()) vars.insert(var);
        pos = i;
      }
    }
  }
}

const char* kEscapeTokens[] = {"send",    "send_all",     "push_back",
                               "emplace_back", "insert",  "emplace",
                               "return",  "merge",        "+=",
                               "|=",      "^=",           "set_output"};

class DeterminismCheck final : public Check {
 public:
  const char* name() const override { return "determinism"; }
  const char* description() const override {
    return "unordered iteration escapes, wall-clock calls";
  }
  std::vector<RuleMeta> rules() const override {
    return {
        {"determinism/unordered-iteration",
         "iteration order of a std::unordered_* container escapes into "
         "engine-visible state"},
        {"determinism/wall-clock",
         "wall-clock / nondeterministic source in library code; runs must "
         "be a pure function of (input, seed)"},
    };
  }

  void run_file(const AnalysisContext& ctx, const SourceFile& f,
                std::vector<Diagnostic>& out) const override {
    (void)ctx;
    if (f.module_name.empty()) return;
    check_wall_clock(f, out);
    static const std::set<std::string> kOrderSensitive = {
        "congest", "dist", "graph", "core"};
    if (kOrderSensitive.count(f.module_name) != 0)
      check_unordered_iteration(f, out);
  }

 private:
  static void check_wall_clock(const SourceFile& f,
                               std::vector<Diagnostic>& out) {
    static const char* kBanned[] = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "random_device", "gettimeofday", "localtime",
        "rdtsc",         "timespec_get"};
    for (const char* token : kBanned) {
      std::size_t pos = find_token(f.code, token);
      if (pos != std::string::npos) {
        out.push_back({"determinism/wall-clock", f.rel, f.line_of(pos), token,
                       std::string("wall-clock / nondeterministic source '") +
                           token + "' in library code; runs must be a pure "
                           "function of (input, seed)"});
      }
    }
    for (const char* call : {"time(nullptr)", "time(NULL)", "time(0)"}) {
      std::size_t pos = f.code.find(call);
      if (pos != std::string::npos) {
        out.push_back({"determinism/wall-clock", f.rel, f.line_of(pos),
                       "time()", "time() seeds depend on the wall clock; "
                       "use an explicit seed"});
      }
    }
  }

  static void check_unordered_iteration(const SourceFile& f,
                                        std::vector<Diagnostic>& out) {
    std::set<std::string> vars;
    std::set<std::string> aliases;
    collect_unordered_names(f, vars, aliases);
    if (vars.empty()) return;

    const std::string& code = f.code;
    // Range-for loops whose range expression ends in an unordered var.
    std::size_t pos = 0;
    while ((pos = find_token(code, "for", pos)) != std::string::npos) {
      std::size_t open = skip_space(code, pos + 3);
      pos += 3;
      if (open >= code.size() || code[open] != '(') continue;
      std::size_t close = match_bracket(code, open, '(', ')');
      if (close == std::string::npos) continue;
      std::string head = code.substr(open + 1, close - open - 2);
      // top-level ':' (not '::')
      int depth = 0;
      std::size_t colon = std::string::npos;
      for (std::size_t i = 0; i < head.size(); ++i) {
        char c = head[i];
        if (c == '(' || c == '<' || c == '[') ++depth;
        if (c == ')' || c == '>' || c == ']') --depth;
        if (c == ':' && depth == 0 &&
            (i + 1 >= head.size() || head[i + 1] != ':') &&
            (i == 0 || head[i - 1] != ':')) {
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) continue;
      std::string range = head.substr(colon + 1);
      while (!range.empty() &&
             (range.back() == ' ' || range.back() == ')' ||
              range.back() == '\n'))
        range.pop_back();
      std::string base = ident_before(range, range.size());
      if (vars.count(base) == 0) continue;

      // Loop body: `{...}` or a single statement up to ';'.
      std::size_t body_begin = skip_space(code, close);
      std::size_t body_end;
      if (body_begin < code.size() && code[body_begin] == '{') {
        body_end = match_bracket(code, body_begin, '{', '}');
      } else {
        body_end = code.find(';', body_begin);
        body_end = body_end == std::string::npos ? code.size() : body_end + 1;
      }
      if (body_end == std::string::npos) body_end = code.size();
      std::string body = code.substr(body_begin, body_end - body_begin);
      for (const char* esc : kEscapeTokens) {
        bool hit = std::string(esc).find_first_of("+|^") != std::string::npos
                       ? body.find(esc) != std::string::npos
                       : find_token(body, esc) != std::string::npos;
        if (hit) {
          out.push_back(
              {"determinism/unordered-iteration", f.rel,
               f.line_of(open), base,
               "iteration over unordered container '" + base + "' escapes "
               "via '" + esc + "'; hash order is implementation-defined — "
               "iterate a sorted view or use std::map"});
          break;
        }
      }
    }

    // `.begin()` handed to algorithms: order escapes almost always.
    for (const std::string& var : vars) {
      for (const char* method : {".begin()", ".cbegin()"}) {
        std::size_t at = code.find(var + method);
        if (at != std::string::npos &&
            (at == 0 || !is_ident_char(code[at - 1]))) {
          out.push_back(
              {"determinism/unordered-iteration", f.rel, f.line_of(at), var,
               "'" + var + method + "' exposes unordered iteration order "
               "to an algorithm; iterate a sorted view or use std::map"});
        }
      }
    }
  }
};

QDC_ANALYZE_REGISTER(DeterminismCheck)

}  // namespace
}  // namespace qdc::analyze
