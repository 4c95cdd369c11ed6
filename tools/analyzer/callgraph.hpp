// Cross-translation-unit symbol index and call graph.
//
// The per-file SymbolTable answers "what does this file declare?"; the
// CallGraph answers "who calls whom, passing what?". It is built once per
// run from the lexed corpus (no compiler, same heuristics as the checks):
//
//   * every function/method definition, keyed by a qualified name derived
//     from the class scope it is defined in (or spelled out-of-line:
//     `Network::deliver`, including `operator()` and out-of-line template
//     member definitions);
//   * every lambda expression as its own node (`<lambda@rel:line>`),
//     linked to the lexically enclosing definition;
//   * call sites attributed to the innermost enclosing body, with one
//     CallArg record per argument (chain base, subscripted or not,
//     address-of) so interprocedural checks can follow by-ref/pointer
//     parameter passing;
//   * name resolution through the definition index: a call resolves to
//     every corpus definition with the same terminal name that accepts the
//     argument count (an over-approximation — no overload resolution);
//     unresolved calls are external (std::, system) and terminate walks;
//   * closures passed to pool entry points (run_sharded, for_shards,
//     dispatch_list, dispatch, submit, parallel_for, method-form .run),
//     shared by parallel/ and flow/.
//
// The graph is read-only after construction.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "source.hpp"

namespace qdc::analyze {

/// One declared parameter of a function definition.
struct ParamRecord {
  std::string name;
  std::string type;         ///< last type token before the name ("" unknown)
  bool by_ref = false;      ///< declarator carries & or * (callee can write)
  bool index_like = false;  ///< NodeId/EdgeId, or integral type + index name
};

/// One argument expression at a call site.
struct CallArg {
  std::string text;         ///< full expression, trimmed
  std::string base;         ///< chain base identifier ("" when unanalyzable)
  bool indexed = false;     ///< the chain crosses a subscript
  bool address_of = false;  ///< leading '&' (pointer passing)
};

struct FunctionDef;

/// One call expression, attributed to the innermost enclosing body.
struct CallSite {
  std::size_t offset = 0;  ///< callee-name offset in the caller file's code
  std::string callee;      ///< terminal identifier of the callee expression
  bool method = false;     ///< invoked through '.' or '->'
  std::vector<CallArg> args;
  std::vector<const FunctionDef*> resolved;  ///< candidates; empty: external
};

/// One function, method, or lambda definition.
struct FunctionDef {
  std::string qname;  ///< "Network::deliver", "helper", "<lambda@rel:12>"
  std::string name;   ///< terminal component ("deliver"); "" for lambdas
  const SourceFile* file = nullptr;
  std::size_t name_pos = 0;    ///< offset of the name (lambdas: the intro)
  std::size_t body_begin = 0;  ///< offset of the body '{'
  std::size_t body_end = 0;    ///< one past the matching '}'
  std::vector<ParamRecord> params;
  /// Parameters, body-declared variables, and nested-closure parameters:
  /// everything the interprocedural write analysis treats as call-local.
  std::set<std::string> locals;
  std::vector<CallSite> calls;  ///< in source order
  bool is_lambda = false;
  const LambdaInfo* lambda = nullptr;       ///< capture info when is_lambda
  const FunctionDef* enclosing = nullptr;   ///< innermost enclosing def
  bool is_public = false;  ///< name declared in a module's non-testing header

  int line() const { return file->line_of(name_pos); }
};

/// A closure handed to a parallel execution entry point.
struct PoolClosure {
  const FunctionDef* closure = nullptr;  ///< a lambda node
  std::string entry;                     ///< "run_sharded", "run", ...
  std::size_t call_offset = 0;           ///< offset of the entry-point call
};

class CallGraph {
 public:
  explicit CallGraph(const std::vector<SourceFile>& files);
  CallGraph(const CallGraph&) = delete;
  CallGraph& operator=(const CallGraph&) = delete;

  /// Every definition, grouped by file (corpus order) then source order.
  const std::deque<FunctionDef>& functions() const { return defs_; }

  /// Definitions in one file, in source order (lambdas interleaved).
  const std::vector<const FunctionDef*>& functions_in_file(
      const std::string& rel) const;

  /// Closures passed to pool entry points, in (file, offset) order.
  const std::vector<PoolClosure>& pool_closures() const {
    return pool_closures_;
  }

  /// Candidate definitions for a call of `name` with `argc` arguments.
  std::vector<const FunctionDef*> resolve(const std::string& name,
                                          std::size_t argc) const;

  /// Names declared public in `module`'s non-testing headers (namespace
  /// scope or public class scope). Empty set for unknown modules.
  const std::set<std::string>& public_names(const std::string& module) const;

  /// Deterministic text dump for the call-graph fixtures
  /// (--dump-callgraph): one line per definition, call edge, and pool
  /// closure.
  std::string dump() const;

 private:
  void discover_functions(const SourceFile& f);
  void add_lambda_nodes(const SourceFile& f);
  void attribute_calls(const SourceFile& f);
  void find_pool_closures(const SourceFile& f);

  std::deque<FunctionDef> defs_;  ///< deque: stable addresses for pointers
  std::map<std::string, std::vector<FunctionDef*>> by_file_;
  /// Read-only per-file view handed out by functions_in_file().
  std::map<std::string, std::vector<const FunctionDef*>> view_;
  std::map<std::string, std::vector<const FunctionDef*>> by_name_;
  std::map<std::string, std::set<std::string>> public_names_;
  std::vector<PoolClosure> pool_closures_;
  /// Param-list '(' offsets of definitions per file, so the call-site scan
  /// can tell `deliver(...)` the definition from `deliver(...)` the call.
  std::map<std::string, std::set<std::size_t>> def_param_opens_;
};

// ---------------------------------------------------------------------------
// Shared path predicates (contract/ and flow/ agree on what "dangerous" and
// "guarded" mean, so the interprocedural rule is the exact closure of the
// intraprocedural one).

/// True for <module>/testing.hpp files (the test-only tamper surface).
bool is_testing_header(const SourceFile& f);

/// First offset in code[begin, end) where `param` is used as a subscript
/// component or a shift operand; npos when it is only read or forwarded.
/// Lambda capture lists are bracketed but are not subscripts.
std::size_t dangerous_use_pos(const SourceFile& f, const std::string& param,
                              std::size_t begin, std::size_t end);

/// First QDC_EXPECT/QDC_CHECK in code[begin, end) whose argument list
/// mentions `param`; npos when none does.
std::size_t guard_pos(const std::string& code, const std::string& param,
                      std::size_t begin, std::size_t end);

}  // namespace qdc::analyze
