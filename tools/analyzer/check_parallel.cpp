// Parallel-safety check: lambda-capture analysis for every closure handed
// to a parallel execution entry point (util::ThreadPool::run via a pool
// expression, util::run_sharded, StateVector::for_shards, Network::dispatch,
// SweepRunner::run, submit/parallel_for). The engine's determinism
// contract says a shard may write only shard-owned state — typically a slot
// indexed by the shard/job number, merged serially in shard order
// (util/shard.hpp documents the idiom). These rules enforce that contract
// at analysis time instead of sampling it at runtime.
//
// Closure discovery and write-target parsing are shared infrastructure now:
// the CallGraph finds the closures (CallGraph::pool_closures), source.hpp
// owns WriteTarget/scan_writes. This check analyzes the closure body itself;
// writes that escape through a call into a helper are flow/'s job
// (flow/shared-write-escape walks the graph from the same PoolClosure list).
//
// Rules:
//   parallel/shared-write-no-slot  a closure passed to a parallel entry
//       point writes (=, +=, ++, push_back, ...) through a by-reference
//       capture or a member, and the write target is not indexed by a
//       shard-local value (a closure parameter or a body-local variable).
//       Such writes race and make results depend on thread interleaving.
//   parallel/atomic-float          any std::atomic<float|double>: atomic FP
//       accumulation commits in scheduling order, so totals differ run to
//       run. Integer atomics pass — their final value is order-free.
//   parallel/false-sharing         a per-shard slot container (a
//       std::vector/std::array of a corpus-declared struct, either named
//       *shard* or written via a shard-indexed slot inside a parallel
//       closure) whose element struct has no alignas annotation or padding
//       member: adjacent slots share a cache line and the shards ping-pong
//       it (ROADMAP open item 1).
//
// All rules skip extras (files outside src/), mirroring determinism/.

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "check.hpp"

namespace qdc::analyze {
namespace {

/// `std::vector<T> name` / `std::array<T, N> name`: element type of the
/// container variable `var` declared in `f`, or "" when not found / not a
/// plain (single-identifier) element type.
std::string element_type_of(const SourceFile& f, const std::string& var) {
  for (const char* tmpl : {"std::vector<", "std::array<"}) {
    const std::string needle(tmpl);
    std::size_t pos = 0;
    while ((pos = f.code.find(needle, pos)) != std::string::npos) {
      std::size_t open = pos + needle.size() - 1;
      std::size_t close = match_bracket(f.code, open, '<', '>');
      pos = open + 1;
      if (close == std::string::npos) continue;
      std::string inner = f.code.substr(open + 1, close - 1 - (open + 1));
      std::size_t comma = inner.find(',');  // std::array<T, N>
      if (comma != std::string::npos) inner = inner.substr(0, comma);
      std::size_t b = skip_space(inner, 0);
      std::string elem = read_ident_at(inner, b);
      if (elem.empty() || skip_space(inner, b + elem.size()) != inner.size())
        continue;  // qualified / template element type: out of scope
      std::size_t after = skip_space(f.code, close);
      while (after < f.code.size() && f.code[after] == '&')
        after = skip_space(f.code, after + 1);
      if (read_ident_at(f.code, after) == var) return elem;
    }
  }
  return "";
}

/// `end` moved back over any whitespace before it.
std::size_t skip_space_back(const std::string& s, std::size_t end) {
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0)
    --end;
  return end;
}

/// True when `struct` or `class` directly introduces the name at `pos`,
/// optionally through one `alignas(...)`, and is not the `class` of an
/// `enum class`.
bool introduces_record(const std::string& code, std::size_t pos) {
  std::size_t end = skip_space_back(code, pos);
  if (end > 0 && code[end - 1] == ')') {  // struct alignas(64) Name
    for (int depth = 0; end > 0;) {
      const char c = code[--end];
      depth += c == ')' ? 1 : c == '(' ? -1 : 0;
      if (depth == 0) break;
    }
    if (ident_before(code, end) != "alignas") return false;
    end = skip_space_back(code, end) - std::string("alignas").size();
  }
  const std::string keyword = ident_before(code, end);
  if (keyword != "struct" && keyword != "class") return false;
  return ident_before(code, skip_space_back(code, end) - keyword.size()) !=
         "enum";
}

/// Locates the definition of struct/class `type` in the corpus. Returns the
/// defining file and fills `def_pos` (offset of the name token) or nullptr.
const SourceFile* find_struct_def(const AnalysisContext& ctx,
                                  const std::string& type,
                                  std::size_t* def_pos) {
  for (const SourceFile& g : *ctx.files) {
    std::size_t pos = 0;
    while ((pos = find_token(g.code, type, pos)) != std::string::npos) {
      std::size_t after = skip_space(g.code, pos + type.size());
      bool defines = after < g.code.size() &&
                     (g.code[after] == '{' || g.code[after] == ':');
      if (defines && introduces_record(g.code, pos)) {
        *def_pos = pos;
        return &g;
      }
      pos += type.size();
    }
  }
  return nullptr;
}

/// True when the struct definition at (file, name offset) carries an
/// alignas annotation or an explicit padding member.
bool struct_is_padded(const SourceFile& f, std::size_t name_pos) {
  std::size_t seg_begin = name_pos > 80 ? name_pos - 80 : 0;
  std::string head = f.code.substr(seg_begin, name_pos - seg_begin);
  if (find_token(head, "alignas") != std::string::npos) return true;
  std::size_t brace = f.code.find('{', name_pos);
  if (brace == std::string::npos) return false;
  std::size_t close = match_bracket(f.code, brace, '{', '}');
  if (close == std::string::npos) return false;
  std::string body = f.code.substr(brace, close - brace);
  return find_token(body, "alignas") != std::string::npos ||
         body.find("pad") != std::string::npos;
}

class ParallelCheck final : public Check {
 public:
  const char* name() const override { return "parallel"; }
  const char* description() const override {
    return "shared writes without a shard-indexed slot, atomic FP, "
           "false-sharing-prone per-shard slot structs";
  }
  std::vector<RuleMeta> rules() const override {
    return {
        {"parallel/shared-write-no-slot",
         "closure passed to a parallel entry point writes shared state "
         "without a shard-/job-indexed slot"},
        {"parallel/atomic-float",
         "std::atomic<float|double>: atomic FP accumulation commits in "
         "scheduling order"},
        {"parallel/false-sharing",
         "per-shard slot struct without alignas/padding: adjacent slots "
         "share a cache line"},
    };
  }

  void run_file(const AnalysisContext& ctx, const SourceFile& f,
                std::vector<Diagnostic>& out) const override {
    if (f.module_name.empty()) return;
    check_atomic_float(f, out);
    check_shard_named_slots(ctx, f, out);
    // The call graph already found every closure handed to a pool entry
    // point (including the method-call `.run(` form).
    std::set<std::string> reported;  // base names, for stable fingerprints
    for (const PoolClosure& pc : ctx.graph().pool_closures()) {
      if (pc.closure->file != &f) continue;
      analyze_closure(ctx, f, *pc.closure->lambda, pc.entry, reported, out);
    }
  }

 private:
  static void check_atomic_float(const SourceFile& f,
                                 std::vector<Diagnostic>& out) {
    for (const char* atomic_fp :
         {"std::atomic<double>", "std::atomic<float>"}) {
      std::size_t pos = f.code.find(atomic_fp);
      if (pos != std::string::npos) {
        out.push_back({"parallel/atomic-float", f.rel, f.line_of(pos),
                       atomic_fp,
                       std::string(atomic_fp) + ": atomic FP accumulation is "
                       "scheduling-order-sensitive; tally per shard and merge "
                       "in shard-index order"});
      }
    }
  }

  /// Declaration path of parallel/false-sharing: a vector/array variable
  /// whose name mentions "shard" and whose element struct has no alignas.
  static void check_shard_named_slots(const AnalysisContext& ctx,
                                      const SourceFile& f,
                                      std::vector<Diagnostic>& out) {
    std::set<std::string> flagged;
    for (const auto& [ident, line] : f.identifiers) {
      std::string lower = ident;
      for (char& c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (lower.find("shard") == std::string::npos) continue;
      std::string elem = element_type_of(f, ident);
      if (elem.empty() || !flagged.insert(elem).second) continue;
      report_unpadded(ctx, f, line, ident, elem, out);
    }
  }

  static void report_unpadded(const AnalysisContext& ctx, const SourceFile& f,
                              int line, const std::string& var,
                              const std::string& elem,
                              std::vector<Diagnostic>& out) {
    std::size_t def_pos = 0;
    const SourceFile* def = find_struct_def(ctx, elem, &def_pos);
    if (def == nullptr || struct_is_padded(*def, def_pos)) return;
    out.push_back(
        {"parallel/false-sharing", f.rel, line, var + ":" + elem,
         "per-shard slots '" + var + "' have element struct '" + elem +
             "' without alignas/padding; adjacent shard slots share a "
             "cache line — annotate the struct with alignas(64)"});
  }

  void analyze_closure(const AnalysisContext& ctx, const SourceFile& f,
                       const LambdaInfo& l, const std::string& entry,
                       std::set<std::string>& reported,
                       std::vector<Diagnostic>& out) const {
    const std::string& code = f.code;
    std::size_t body_begin = l.body_begin + 1;
    std::size_t body_end = l.body_end > 0 ? l.body_end - 1 : body_begin;

    // Shard-local names: closure parameters, body-declared variables, and
    // the parameters of any closure nested in this body (its locals are
    // covered by the body-wide declaration scan).
    std::set<std::string> locals = declared_vars_in(code, body_begin,
                                                    body_end);
    locals.insert(l.params.begin(), l.params.end());
    for (const LambdaInfo& o : f.symbols().lambdas)
      if (o.intro > l.body_begin && o.intro < l.body_end)
        locals.insert(o.params.begin(), o.params.end());

    auto consider = [&](std::size_t at, const WriteTarget& t,
                        const char* what) {
      if (!t.valid || locals.count(t.base) != 0) return;
      if (f.symbols().atomic_vars.count(t.base) != 0) return;
      bool member = !t.base.empty() && t.base.back() == '_';
      bool shared =
          member ? (l.captures_this || l.captures_default_ref ||
                    l.captures_default_copy)
                 : l.captures_by_ref(t.base);
      if (!shared) return;
      if (!t.index_expr.empty()) {
        // A write through a slot indexed by a shard-local value is the
        // blessed idiom — but if the slot element is an unpadded struct,
        // adjacent shards still contend on the cache line.
        std::vector<Token> idx = tokenize_code(t.index_expr);
        for (const Token& tok : idx) {
          if (tok.ident && locals.count(tok.text) != 0) {
            std::string elem = element_type_of(f, t.base);
            if (!elem.empty() && reported.insert("fs:" + t.base).second)
              report_unpadded(ctx, f, f.line_of(at), t.base, elem, out);
            return;
          }
        }
      }
      if (!reported.insert(t.base).second) return;
      out.push_back(
          {"parallel/shared-write-no-slot", f.rel, f.line_of(at), t.base,
           std::string("closure passed to ") + entry + "() " + what +
               " '" + t.base + "', which is not shard-local and not a "
               "shard-indexed slot; give each shard its own slot (indexed "
               "by the shard/job number) and merge in shard order"});
    };

    scan_writes(code, body_begin, body_end, consider);
  }
};

QDC_ANALYZE_REGISTER(ParallelCheck)

}  // namespace
}  // namespace qdc::analyze
