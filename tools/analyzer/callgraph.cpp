#include "callgraph.hpp"

#include <algorithm>
#include <cctype>

namespace qdc::analyze {
namespace {

bool is_all_caps(const std::string& s) {
  for (char c : s)
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
  return true;
}

/// Integral carrier types whose parameters may index into storage.
bool is_integral_type(const std::string& t) {
  static const std::set<std::string> kTypes = {
      "int",      "unsigned", "long",     "short",    "size_t",
      "int32_t",  "int64_t",  "uint32_t", "uint64_t", "ptrdiff_t"};
  return kTypes.count(t) != 0;
}

/// Strong id types that are index-like regardless of the parameter name.
bool is_id_type(const std::string& t) {
  return t == "NodeId" || t == "EdgeId";
}

/// Parameter names that mark an integral parameter as an index or size.
bool is_indexy_name(const std::string& n) {
  static const std::set<std::string> kExact = {
      "qubit", "control", "target", "basis", "index", "idx",
      "shard", "node",    "port",   "size",  "count"};
  if (kExact.count(n) != 0) return true;
  for (const char* suffix : {"_id", "_idx", "_index", "_count", "_size"}) {
    std::string s(suffix);
    if (n.size() > s.size() &&
        n.compare(n.size() - s.size(), s.size(), s) == 0)
      return true;
  }
  return false;
}

/// Position of the definition body '{' after the parameter list ending at
/// `close`, skipping cv/ref qualifiers, noexcept(...), trailing return
/// types and constructor initializer lists. npos when this is a
/// declaration, a call, or anything else.
std::size_t find_body(const std::string& code, std::size_t close) {
  std::size_t j = skip_space(code, close);
  while (j < code.size()) {
    std::string q = read_ident_at(code, j);
    if (q == "const" || q == "override" || q == "final" || q == "mutable") {
      j = skip_space(code, j + q.size());
      continue;
    }
    if (q == "noexcept") {
      j = skip_space(code, j + q.size());
      if (j < code.size() && code[j] == '(') {
        j = match_bracket(code, j, '(', ')');
        if (j == std::string::npos) return std::string::npos;
        j = skip_space(code, j);
      }
      continue;
    }
    break;
  }
  if (j + 1 < code.size() && code[j] == '-' && code[j + 1] == '>') {
    // Trailing return type: take whichever of '{' / ';' comes first.
    std::size_t brace = code.find('{', j);
    std::size_t semi = code.find(';', j);
    if (brace == std::string::npos || semi < brace) return std::string::npos;
    return brace;
  }
  if (j < code.size() && code[j] == ':' &&
      !(j + 1 < code.size() && code[j + 1] == ':')) {
    // Constructor initializer list: `: member_(expr), base(expr) {`.
    ++j;
    while (j < code.size()) {
      j = skip_space(code, j);
      std::string id = read_ident_at(code, j);
      if (id.empty()) return std::string::npos;
      j += id.size();
      j = skip_space(code, j);
      while (j + 1 < code.size() && code[j] == ':' && code[j + 1] == ':') {
        j = skip_space(code, j + 2);
        j += read_ident_at(code, j).size();
        j = skip_space(code, j);
      }
      if (j >= code.size() || (code[j] != '(' && code[j] != '{'))
        return std::string::npos;
      j = match_bracket(code, j, code[j], code[j] == '(' ? ')' : '}');
      if (j == std::string::npos) return std::string::npos;
      j = skip_space(code, j);
      if (j < code.size() && code[j] == ',') {
        ++j;
        continue;
      }
      break;
    }
    return j < code.size() && code[j] == '{' ? j : std::string::npos;
  }
  return j < code.size() && code[j] == '{' ? j : std::string::npos;
}

/// Parameter records of one `(...)` parameter list (text without parens).
std::vector<ParamRecord> parse_param_records(const std::string& text) {
  std::vector<ParamRecord> out;
  for (const std::string& raw : split_top_level(text, 0, text.size())) {
    std::string chunk = raw;
    int depth = 0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      char c = chunk[i];
      if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
      if (c == '=' && depth == 0) {  // cut the default argument
        chunk.resize(i);
        break;
      }
    }
    ParamRecord p;
    depth = 0;
    for (char c : chunk) {
      if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
      if ((c == '&' || c == '*') && depth == 0) p.by_ref = true;
    }
    for (const Token& t : tokenize_code(chunk)) {
      if (!t.ident) continue;
      p.type = p.name;
      p.name = t.text;
    }
    if (p.name.empty() || is_cpp_keyword(p.name)) continue;
    p.index_like = is_id_type(p.type) ||
                   (is_integral_type(p.type) && is_indexy_name(p.name));
    out.push_back(std::move(p));
  }
  return out;
}

/// Scope-stack scan of a header: names of functions declared at namespace
/// scope or at public class scope.
void collect_public_names(const SourceFile& f, std::set<std::string>& names) {
  std::vector<Token> toks = tokenize_code(f.code);
  // 'n' namespace (transparent), 'c' class (access-tracked), 'o' opaque
  // (function bodies, enums, initializers).
  struct Scope {
    char kind;
    bool pub;
  };
  std::vector<Scope> stack;
  std::string pending;  // keyword governing the next '{'
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.ident) {
      if (t.text == "namespace") pending = "namespace";
      if (t.text == "enum") pending = "enum";
      if ((t.text == "class" || t.text == "struct") && pending != "enum")
        pending = t.text;
      bool at_class = !stack.empty() && stack.back().kind == 'c';
      if (at_class && i + 1 < toks.size() && toks[i + 1].text == ":" &&
          (t.text == "public" || t.text == "private" ||
           t.text == "protected")) {
        stack.back().pub = t.text == "public";
        continue;
      }
      bool visible = stack.empty() || stack.back().kind == 'n' ||
                     (at_class && stack.back().pub);
      if (visible && pending.empty() && i + 1 < toks.size() &&
          toks[i + 1].text == "(" && !is_cpp_keyword(t.text) &&
          !is_all_caps(t.text)) {
        names.insert(t.text);
      }
      continue;
    }
    if (t.text == "{") {
      if (pending == "namespace")
        stack.push_back({'n', true});
      else if (pending == "class")
        stack.push_back({'c', false});
      else if (pending == "struct")
        stack.push_back({'c', true});
      else
        stack.push_back({'o', false});
      pending.clear();
    } else if (t.text == "}") {
      if (!stack.empty()) stack.pop_back();
    } else if (t.text == ";") {
      pending.clear();
    }
  }
}

/// Spelled-out qualification of the name at `name_pos` ("Foo::" for
/// `Foo::bar`, "Foo::" for `Foo<T>::bar`, "" for unqualified names),
/// walked backward across `::` and template argument lists.
std::string qname_prefix(const std::string& code, std::size_t name_pos) {
  std::string prefix;
  std::size_t j = name_pos;
  while (true) {
    std::size_t k = j;
    while (k > 0 && std::isspace(static_cast<unsigned char>(code[k - 1])) != 0)
      --k;
    if (k < 2 || code[k - 1] != ':' || code[k - 2] != ':') break;
    k -= 2;
    while (k > 0 && std::isspace(static_cast<unsigned char>(code[k - 1])) != 0)
      --k;
    if (k > 0 && code[k - 1] == '>') {
      int depth = 0;
      std::size_t i = k;
      while (i > 0) {
        --i;
        if (code[i] == '>') ++depth;
        if (code[i] == '<' && --depth == 0) break;
      }
      if (i == 0 && depth != 0) break;  // unbalanced: give up on the prefix
      k = i;
      while (k > 0 &&
             std::isspace(static_cast<unsigned char>(code[k - 1])) != 0)
        --k;
    }
    std::string part = ident_before(code, k);
    if (part.empty()) break;
    prefix = part + "::" + prefix;
    j = k - part.size();
  }
  return prefix;
}

/// Parallel entry points whose closure arguments become PoolClosures:
/// util::run_sharded, StateVector::for_shards and Network::dispatch_list
/// (the round engine's compute, deliver and reset phases), plus the
/// generic pool shapes dispatch, submit and parallel_for. Method-form
/// `.run(` calls (ThreadPool::run, SweepRunner::run) are matched apart.
const char* kEntryTokens[] = {"run_sharded", "for_shards", "dispatch_list",
                              "dispatch",    "submit",     "parallel_for"};

}  // namespace

bool is_testing_header(const SourceFile& f) {
  return f.rel.size() >= 11 &&
         f.rel.compare(f.rel.size() - 11, 11, "testing.hpp") == 0;
}

std::size_t dangerous_use_pos(const SourceFile& f, const std::string& param,
                              std::size_t begin, std::size_t end) {
  const std::string& code = f.code;
  // Lambda capture lists are bracketed but are not subscripts.
  std::vector<std::pair<std::size_t, std::size_t>> intro_ranges;
  for (const LambdaInfo& l : f.symbols().lambdas) {
    std::size_t r = match_bracket(code, l.intro, '[', ']');
    if (r != std::string::npos) intro_ranges.emplace_back(l.intro, r);
  }
  auto in_intro = [&](std::size_t pos) {
    for (const auto& [lo, hi] : intro_ranges)
      if (pos >= lo && pos < hi) return true;
    return false;
  };
  std::size_t pos = begin;
  while ((pos = find_token(code, param, pos)) != std::string::npos &&
         pos < end) {
    std::size_t at = pos;
    pos += param.size();
    if (in_intro(at)) continue;
    // Subscript: any unclosed '[' between body begin and the use.
    int depth = 0;
    for (std::size_t k = begin; k < at; ++k) {
      if (in_intro(k)) continue;
      if (code[k] == '[') ++depth;
      if (code[k] == ']' && depth > 0) --depth;
    }
    if (depth > 0) return at;
    // Shift operand: `x << param`, `param << x` (and >>).
    std::size_t b = at;
    while (b > begin &&
           std::isspace(static_cast<unsigned char>(code[b - 1])) != 0)
      --b;
    if (b >= begin + 2 && ((code[b - 1] == '<' && code[b - 2] == '<') ||
                           (code[b - 1] == '>' && code[b - 2] == '>')))
      return at;
    std::size_t a = skip_space(code, at + param.size());
    if (a + 1 < end && ((code[a] == '<' && code[a + 1] == '<') ||
                        (code[a] == '>' && code[a + 1] == '>')))
      return at;
  }
  return std::string::npos;
}

std::size_t guard_pos(const std::string& code, const std::string& param,
                      std::size_t begin, std::size_t end) {
  std::size_t best = std::string::npos;
  for (const char* macro : {"QDC_EXPECT", "QDC_CHECK"}) {
    std::size_t pos = begin;
    while ((pos = find_token(code, macro, pos)) != std::string::npos &&
           pos < end) {
      std::size_t at = pos;
      pos += std::string(macro).size();
      std::size_t open = skip_space(code, pos);
      if (open >= code.size() || code[open] != '(') continue;
      std::size_t close = match_bracket(code, open, '(', ')');
      if (close == std::string::npos) continue;
      std::string args = code.substr(open + 1, close - 1 - (open + 1));
      if (find_token(args, param) != std::string::npos && at < best)
        best = at;
    }
  }
  return best;
}

CallGraph::CallGraph(const std::vector<SourceFile>& files) {
  for (const SourceFile& f : files)
    if (!f.module_name.empty() && f.is_header && !is_testing_header(f))
      collect_public_names(f, public_names_[f.module_name]);

  for (const SourceFile& f : files) {
    discover_functions(f);
    add_lambda_nodes(f);
  }

  // File views in source order, the name index, enclosing links, publicness.
  for (FunctionDef& d : defs_) by_file_[d.file->rel].push_back(&d);
  for (auto& [rel, defs] : by_file_) {
    std::sort(defs.begin(), defs.end(),
              [](const FunctionDef* a, const FunctionDef* b) {
                return a->name_pos < b->name_pos;
              });
    view_[rel].assign(defs.begin(), defs.end());
  }
  for (FunctionDef& d : defs_) {
    if (!d.is_lambda) by_name_[d.name].push_back(&d);
    d.is_public = !d.is_lambda &&
                  public_names(d.file->module_name).count(d.name) != 0;
  }
  for (FunctionDef& d : defs_) {
    for (const FunctionDef* cand : by_file_[d.file->rel]) {
      if (cand == &d) continue;
      if (cand->body_begin < d.name_pos && d.name_pos < cand->body_end &&
          (d.enclosing == nullptr ||
           cand->body_begin > d.enclosing->body_begin))
        d.enclosing = cand;
    }
  }

  for (const SourceFile& f : files) {
    attribute_calls(f);
    find_pool_closures(f);
  }
  std::sort(pool_closures_.begin(), pool_closures_.end(),
            [](const PoolClosure& a, const PoolClosure& b) {
              if (a.closure->file->rel != b.closure->file->rel)
                return a.closure->file->rel < b.closure->file->rel;
              if (a.call_offset != b.call_offset)
                return a.call_offset < b.call_offset;
              return a.closure->name_pos < b.closure->name_pos;
            });
}

const std::vector<const FunctionDef*>& CallGraph::functions_in_file(
    const std::string& rel) const {
  static const std::vector<const FunctionDef*> kEmpty;
  auto it = view_.find(rel);
  return it == view_.end() ? kEmpty : it->second;
}

std::vector<const FunctionDef*> CallGraph::resolve(const std::string& name,
                                                   std::size_t argc) const {
  std::vector<const FunctionDef*> out;
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return out;
  for (const FunctionDef* d : it->second)
    if (argc <= d->params.size()) out.push_back(d);  // defaults may fill in
  return out;
}

const std::set<std::string>& CallGraph::public_names(
    const std::string& module) const {
  static const std::set<std::string> kEmpty;
  auto it = public_names_.find(module);
  return it == public_names_.end() ? kEmpty : it->second;
}

void CallGraph::discover_functions(const SourceFile& f) {
  const std::string& code = f.code;
  std::vector<Token> toks = tokenize_code(code);
  struct Scope {
    char kind;  // 'n' namespace, 'c' class/struct, 'o' opaque
    std::string name;
  };
  std::vector<Scope> stack;
  std::string pending_kind;
  std::string pending_name;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!t.ident) {
      if (t.text == "{") {
        if (pending_kind == "namespace")
          stack.push_back({'n', pending_name});
        else if (pending_kind == "class" || pending_kind == "struct")
          stack.push_back({'c', pending_name});
        else
          stack.push_back({'o', ""});
        pending_kind.clear();
        pending_name.clear();
      } else if (t.text == "}") {
        if (!stack.empty()) stack.pop_back();
      } else if (t.text == ";") {
        pending_kind.clear();
        pending_name.clear();
      }
      continue;
    }

    if (t.text == "template") {
      // Skip the parameter list so `class T` does not look like a class
      // head (out-of-line template members are the lexer-gap case).
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        int depth = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].text == "<") ++depth;
          else if (toks[j].text == ">" && --depth == 0) break;
        }
        i = j;
      }
      continue;
    }
    if (t.text == "namespace") {
      pending_kind = "namespace";
      pending_name.clear();
      continue;
    }
    if (t.text == "enum") {
      pending_kind = "enum";
      pending_name.clear();
      continue;
    }
    if ((t.text == "class" || t.text == "struct") && pending_kind != "enum") {
      pending_kind = t.text;
      pending_name.clear();
      continue;
    }
    if (!pending_kind.empty()) {
      if (pending_name.empty() && !is_cpp_keyword(t.text))
        pending_name = t.text;
      continue;
    }

    // Candidate definition head: `name (`, `operator() (`, `operator== (`.
    std::string det_name;
    std::size_t params_open_tok = 0;
    if (t.text == "operator" && i + 1 < toks.size() && !toks[i + 1].ident) {
      if (toks[i + 1].text == "(" && i + 3 < toks.size() &&
          toks[i + 2].text == ")" && toks[i + 3].text == "(") {
        det_name = "operator()";
        params_open_tok = i + 3;
      } else {
        std::string puncts;
        std::size_t j = i + 1;
        while (j < toks.size() && !toks[j].ident && toks[j].text != "(" &&
               puncts.size() < 3) {
          puncts += toks[j].text;
          ++j;
        }
        if (!puncts.empty() && j < toks.size() && toks[j].text == "(") {
          det_name = "operator" + puncts;
          params_open_tok = j;
        }
      }
    } else if (!is_cpp_keyword(t.text) && !is_all_caps(t.text) &&
               i + 1 < toks.size() && toks[i + 1].text == "(") {
      det_name = t.text;
      params_open_tok = i + 1;
    }
    if (det_name.empty()) continue;

    // A definition head never follows a comma, and a lone ':' after ')'
    // opens a constructor initializer list — `Ctor(...) : member_(n) {}`
    // would otherwise record `member_` as a function definition.
    {
      std::size_t b = t.offset;
      while (b > 0 &&
             std::isspace(static_cast<unsigned char>(code[b - 1])) != 0)
        --b;
      if (b > 0 && code[b - 1] == ',') continue;
      if (b > 0 && code[b - 1] == ':' && !(b > 1 && code[b - 2] == ':')) {
        std::size_t c = b - 1;
        while (c > 0 &&
               std::isspace(static_cast<unsigned char>(code[c - 1])) != 0)
          --c;
        if (c > 0 && (code[c - 1] == ')' || code[c - 1] == '}')) continue;
      }
    }

    std::size_t open = toks[params_open_tok].offset;
    std::size_t close = match_bracket(code, open, '(', ')');
    if (close == std::string::npos) continue;
    std::size_t body = find_body(code, close);
    if (body == std::string::npos) continue;
    std::size_t body_end = match_bracket(code, body, '{', '}');
    if (body_end == std::string::npos) continue;

    FunctionDef d;
    d.name = det_name;
    {
      std::size_t b = t.offset;
      while (b > 0 &&
             std::isspace(static_cast<unsigned char>(code[b - 1])) != 0)
        --b;
      if (b > 0 && code[b - 1] == '~') d.name = "~" + d.name;  // destructor
    }
    d.file = &f;
    d.name_pos = t.offset;
    d.body_begin = body;
    d.body_end = body_end;
    d.params =
        parse_param_records(code.substr(open + 1, close - 1 - (open + 1)));
    std::string prefix = qname_prefix(code, t.offset);
    if (prefix.empty())
      for (const Scope& s : stack)
        if (s.kind == 'c' && !s.name.empty()) prefix += s.name + "::";
    d.qname = prefix + d.name;
    d.locals = declared_vars_in(code, body + 1, body_end - 1);
    for (const ParamRecord& p : d.params) d.locals.insert(p.name);
    for (const LambdaInfo& l : f.symbols().lambdas)
      if (l.intro > body && l.body_end <= body_end)
        d.locals.insert(l.params.begin(), l.params.end());
    def_param_opens_[f.rel].insert(open);
    defs_.push_back(std::move(d));
  }
}

void CallGraph::add_lambda_nodes(const SourceFile& f) {
  for (const LambdaInfo& l : f.symbols().lambdas) {
    FunctionDef d;
    d.is_lambda = true;
    d.lambda = &l;
    d.file = &f;
    d.name_pos = l.intro;
    d.body_begin = l.body_begin;
    d.body_end = l.body_end;
    d.qname = "<lambda@" + f.rel + ":" +
              std::to_string(f.line_of(l.intro)) + ">";
    for (const std::string& p : l.params)
      d.params.push_back({p, "", false, false});
    if (d.body_end > d.body_begin + 1)
      d.locals = declared_vars_in(f.code, d.body_begin + 1, d.body_end - 1);
    for (const std::string& p : l.params) d.locals.insert(p);
    for (const LambdaInfo& o : f.symbols().lambdas)
      if (o.intro > l.body_begin && o.intro < l.body_end)
        d.locals.insert(o.params.begin(), o.params.end());
    defs_.push_back(std::move(d));
  }
}

void CallGraph::attribute_calls(const SourceFile& f) {
  auto it = by_file_.find(f.rel);
  if (it == by_file_.end()) return;
  const std::vector<FunctionDef*>& defs = it->second;
  const std::string& code = f.code;
  const std::set<std::size_t>& def_opens = def_param_opens_[f.rel];
  std::vector<Token> toks = tokenize_code(code);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!t.ident || toks[i + 1].text != "(") continue;
    if (is_cpp_keyword(t.text) || is_all_caps(t.text)) continue;
    std::size_t open = toks[i + 1].offset;
    if (def_opens.count(open) != 0) continue;  // a definition head
    std::size_t close = match_bracket(code, open, '(', ')');
    if (close == std::string::npos) continue;

    FunctionDef* owner = nullptr;
    for (FunctionDef* d : defs)
      if (d->body_begin < t.offset && t.offset < d->body_end &&
          (owner == nullptr || d->body_begin > owner->body_begin))
        owner = d;
    if (owner == nullptr) continue;  // decls, init lists, default members

    CallSite cs;
    cs.offset = t.offset;
    cs.callee = t.text;
    {
      std::size_t b = t.offset;
      while (b > 0 &&
             std::isspace(static_cast<unsigned char>(code[b - 1])) != 0)
        --b;
      cs.method =
          b > 0 && (code[b - 1] == '.' ||
                    (b > 1 && code[b - 1] == '>' && code[b - 2] == '-'));
    }
    std::vector<std::string> chunks = split_top_level(code, open + 1, close - 1);
    for (const std::string& raw : chunks) {
      CallArg a;
      a.text = trim_spaces(raw);
      if (a.text.empty() && chunks.size() == 1) break;  // zero-arg call
      std::size_t s0 = 0;
      if (!a.text.empty() && a.text[0] == '&' &&
          (a.text.size() < 2 || a.text[1] != '&')) {
        a.address_of = true;
        s0 = 1;
      }
      WriteTarget wt = parse_chain_fwd(a.text, s0);
      if (wt.valid && !is_cpp_keyword(wt.base)) {
        a.base = wt.base;
        a.indexed = !wt.index_expr.empty();
      }
      cs.args.push_back(std::move(a));
    }
    cs.resolved = resolve(cs.callee, cs.args.size());
    owner->calls.push_back(std::move(cs));
  }
}

void CallGraph::find_pool_closures(const SourceFile& f) {
  auto fit = by_file_.find(f.rel);
  if (fit == by_file_.end()) return;
  const std::vector<FunctionDef*>& defs = fit->second;
  const std::string& code = f.code;

  auto add_closures = [&](std::size_t open, std::size_t close,
                          const std::string& entry, std::size_t at) {
    for (FunctionDef* d : defs) {
      if (!d->is_lambda) continue;
      const LambdaInfo& l = *d->lambda;
      if (l.intro <= open || l.intro >= close || l.body_end > close) continue;
      // Skip closures nested inside another closure of the same call: the
      // outer closure's analysis owns the whole body region.
      bool nested = false;
      for (const FunctionDef* o : defs) {
        if (o == d || !o->is_lambda) continue;
        const LambdaInfo& m = *o->lambda;
        if (m.intro > open && m.intro < l.intro && l.intro < m.body_end &&
            m.body_end <= close)
          nested = true;
      }
      if (!nested) pool_closures_.push_back({d, entry, at});
    }
  };

  for (const char* entry : kEntryTokens) {
    std::size_t pos = 0;
    while ((pos = find_token(code, entry, pos)) != std::string::npos) {
      std::size_t at = pos;
      std::size_t open = skip_space(code, pos + std::string(entry).size());
      pos = open;
      if (open >= code.size() || code[open] != '(') continue;
      std::size_t close = match_bracket(code, open, '(', ')');
      if (close == std::string::npos) break;
      add_closures(open, close, entry, at);
      pos = open + 1;
    }
  }
  // Method-call form: `pool->run(...)`, `runner.run(...)`. Definitions
  // (`SweepRunner::run`) are preceded by "::" and skipped.
  std::size_t pos = 0;
  while ((pos = find_token(code, "run", pos)) != std::string::npos) {
    std::size_t at = pos;
    pos += 3;
    bool method = at > 0 && (code[at - 1] == '.' ||
                             (at > 1 && code[at - 1] == '>' &&
                              code[at - 2] == '-'));
    if (!method) continue;
    std::size_t open = skip_space(code, at + 3);
    if (open >= code.size() || code[open] != '(') continue;
    std::size_t close = match_bracket(code, open, '(', ')');
    if (close == std::string::npos) break;
    add_closures(open, close, "run", at);
  }
}

std::string CallGraph::dump() const {
  std::string out;
  for (const auto& [rel, defs] : by_file_) {
    for (const FunctionDef* d : defs) {
      out += d->is_lambda ? "lambda " : "function ";
      out += rel + ":" + std::to_string(d->line()) + " " + d->qname;
      if (!d->is_lambda) {
        out += "(";
        for (std::size_t i = 0; i < d->params.size(); ++i) {
          if (i != 0) out += ", ";
          out += d->params[i].name;
          if (d->params[i].by_ref) out += "&";
        }
        out += ")";
        if (d->is_public) out += " public";
      } else if (d->enclosing != nullptr) {
        out += " enclosing=" + d->enclosing->qname;
      }
      out += "\n";
      for (const CallSite& c : d->calls) {
        out += "  call :" + std::to_string(d->file->line_of(c.offset)) +
               " " + c.callee + " -> ";
        if (c.resolved.empty()) {
          out += "external";
        } else {
          std::vector<std::string> names;
          for (const FunctionDef* r : c.resolved) names.push_back(r->qname);
          std::sort(names.begin(), names.end());
          names.erase(std::unique(names.begin(), names.end()), names.end());
          for (std::size_t i = 0; i < names.size(); ++i)
            out += (i != 0 ? "," : "") + names[i];
        }
        out += "\n";
      }
    }
  }
  for (const PoolClosure& p : pool_closures_)
    out += "pool-closure " + p.closure->file->rel + ":" +
           std::to_string(p.closure->file->line_of(p.call_offset)) + " " +
           p.closure->qname + " entry=" + p.entry + "\n";
  return out;
}

}  // namespace qdc::analyze
