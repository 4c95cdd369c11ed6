#include "source.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qdc::analyze {

namespace fs = std::filesystem;

namespace {

/// True when the '"' at `quote` opens a raw string literal (R"...", with an
/// optional u8/u/U/L encoding prefix, itself not glued to an identifier).
bool is_raw_string_open(const std::string& text, std::size_t quote) {
  if (quote == 0 || text[quote - 1] != 'R') return false;
  std::size_t r = quote - 1;
  if (r >= 2 && text[r - 1] == '8' && text[r - 2] == 'u')
    r -= 2;
  else if (r >= 1 &&
           (text[r - 1] == 'u' || text[r - 1] == 'U' || text[r - 1] == 'L'))
    r -= 1;
  return r == 0 || !is_ident_char(text[r - 1]);
}

}  // namespace

std::string strip_comments_and_strings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char nxt = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && nxt == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && nxt == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"' && is_raw_string_open(text, i)) {
          // Raw string literal R"delim(...)delim": no escapes apply; blank
          // everything through the matching close (newlines survive). An
          // unterminated raw string blanks to end of file.
          std::size_t open = text.find('(', i + 1);
          std::string delim =
              open == std::string::npos ? "" : text.substr(i + 1, open - i - 1);
          if (open == std::string::npos || delim.size() > 16 ||
              delim.find_first_of(" )\\\n") != std::string::npos) {
            state = State::kString;  // not a well-formed raw string after all
            out += ' ';
            break;
          }
          const std::string close = ")" + delim + "\"";
          std::size_t end = text.find(close, open + 1);
          std::size_t stop =
              end == std::string::npos ? text.size() : end + close.size();
          for (; i < stop; ++i) out += text[i] == '\n' ? '\n' : ' ';
          --i;  // the outer loop increments past the close quote
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && nxt == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out += "  ";
          ++i;
        } else {
          if (c == quote) state = State::kCode;
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

int SourceFile::line_of(std::size_t pos) const {
  auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(), pos);
  return static_cast<int>(it - line_starts_.begin());
}

// ---------------------------------------------------------------------------
// Expression scanning utilities.

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t find_token(const std::string& hay, const std::string& needle,
                       std::size_t from) {
  while (true) {
    std::size_t pos = hay.find(needle, from);
    if (pos == std::string::npos) return std::string::npos;
    bool left_ok = pos == 0 || !is_ident_char(hay[pos - 1]);
    std::size_t end = pos + needle.size();
    bool right_ok = end >= hay.size() || !is_ident_char(hay[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
}

std::size_t match_bracket(const std::string& s, std::size_t open, char lhs,
                          char rhs) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == lhs) ++depth;
    if (s[i] == rhs && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

std::size_t skip_space(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0)
    ++i;
  return i;
}

std::string read_ident_at(const std::string& s, std::size_t i) {
  std::size_t j = i;
  while (j < s.size() && is_ident_char(s[j])) ++j;
  return s.substr(i, j - i);
}

std::string ident_before(const std::string& s, std::size_t end) {
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0)
    --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(s[begin - 1])) --begin;
  return s.substr(begin, end - begin);
}

bool is_cpp_keyword(const std::string& s) {
  static const char* kKeywords[] = {
      "alignas",  "alignof",  "auto",     "bool",     "break",   "case",
      "catch",    "char",     "class",    "const",    "constexpr",
      "continue", "decltype", "default",  "delete",   "do",      "double",
      "else",     "enum",     "explicit", "extern",   "false",   "float",
      "for",      "friend",   "goto",     "if",       "inline",  "int",
      "long",     "mutable",  "namespace", "new",     "noexcept", "nullptr",
      "operator", "private",  "protected", "public",  "return",  "short",
      "signed",   "sizeof",   "static",   "struct",   "switch",  "template",
      "this",     "throw",    "true",     "try",      "typedef", "typename",
      "union",    "unsigned", "using",    "virtual",  "void",    "while"};
  for (const char* k : kKeywords)
    if (s == k) return true;
  return false;
}

std::vector<Token> tokenize_code(const std::string& code) {
  std::vector<Token> toks;
  std::size_t i = 0;
  bool line_is_directive = false;
  bool at_line_start = true;
  while (i < code.size()) {
    char c = code[i];
    if (c == '\n') {
      line_is_directive = false;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (at_line_start && c == '#') line_is_directive = true;
    at_line_start = false;
    if (line_is_directive) {  // directives are handled by the lexer already
      ++i;
      continue;
    }
    if (is_ident_char(c) &&
        std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::size_t j = i;
      while (j < code.size() && is_ident_char(code[j])) ++j;
      toks.push_back({code.substr(i, j - i), i, true});
      i = j;
    } else if (is_ident_char(c)) {  // number: skip the run
      while (i < code.size() && is_ident_char(code[i])) ++i;
    } else {
      toks.push_back({std::string(1, c), i, false});
      ++i;
    }
  }
  return toks;
}

std::set<std::string> declared_vars_in(const std::string& code,
                                       std::size_t begin, std::size_t end) {
  std::set<std::string> out;
  if (begin >= code.size() || begin >= end) return out;
  const std::string region = code.substr(begin, end - begin);
  std::vector<Token> toks = tokenize_code(region);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident || is_cpp_keyword(toks[i].text)) continue;
    const std::string& nxt = toks[i + 1].text;
    // `Type name =`, `Type name;`, `Type name{...}`, `Type name(...)` with a
    // type-ish token (identifier, '>', '&', '*') right before the name.
    if ((nxt == "=" || nxt == ";" || nxt == "{" || nxt == "(") && i > 0) {
      const Token& prev = toks[i - 1];
      // A '>' ends a template type, unless it is the arrow of `p->name`.
      const bool arrow = prev.text == ">" && i > 1 &&
                         toks[i - 2].text == "-" &&
                         toks[i - 2].offset + 1 == prev.offset;
      bool typeish = (prev.ident && !is_cpp_keyword(prev.text)) ||
                     (prev.text == ">" && !arrow) || prev.text == "&" ||
                     prev.text == "*";
      // `auto`, builtin types and cv-qualifiers are keywords; accept them
      // as the type position too.
      bool builtin = prev.ident &&
                     (prev.text == "auto" || prev.text == "int" ||
                      prev.text == "bool" || prev.text == "double" ||
                      prev.text == "float" || prev.text == "char" ||
                      prev.text == "long" || prev.text == "short" ||
                      prev.text == "unsigned" || prev.text == "signed" ||
                      prev.text == "const");
      if (typeish || builtin) out.insert(toks[i].text);
      continue;
    }
    // Range-for head: `for (decl : range)` declares the ident before ':'.
    if (nxt == ":" && i + 2 < toks.size() && toks[i + 2].text != ":" &&
        (i == 0 || toks[i - 1].text != ":"))
      out.insert(toks[i].text);
  }
  // Structured bindings: `auto [a, b] = ...` / `auto& [a, b] = ...`.
  std::size_t pos = 0;
  while ((pos = find_token(region, "auto", pos)) != std::string::npos) {
    std::size_t i = skip_space(region, pos + 4);
    while (i < region.size() && (region[i] == '&' || region[i] == '*'))
      i = skip_space(region, i + 1);
    if (i < region.size() && region[i] == '[') {
      std::size_t close = match_bracket(region, i, '[', ']');
      if (close != std::string::npos) {
        std::size_t j = i + 1;
        while (j < close - 1) {
          j = skip_space(region, j);
          std::string name = read_ident_at(region, j);
          if (!name.empty()) {
            out.insert(name);
            j += name.size();
          } else {
            ++j;
          }
          while (j < close - 1 && region[j] != ',') ++j;
          if (j < close - 1) ++j;
        }
      }
    }
    pos += 4;
  }
  return out;
}

bool LambdaInfo::captures_by_ref(const std::string& name) const {
  if (std::find(ref_captures.begin(), ref_captures.end(), name) !=
      ref_captures.end())
    return true;
  if (std::find(copy_captures.begin(), copy_captures.end(), name) !=
      copy_captures.end())
    return false;
  return captures_default_ref;
}

std::vector<std::string> split_top_level(const std::string& s,
                                         std::size_t begin, std::size_t end) {
  std::vector<std::string> parts;
  int depth = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    char c = s[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  if (end > start) parts.push_back(s.substr(start, end - start));
  return parts;
}

std::string trim_spaces(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)
    --e;
  return s.substr(b, e - b);
}

WriteTarget parse_chain_back(const std::string& s, std::size_t end) {
  WriteTarget t;
  while (true) {
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(s[end - 1])) != 0)
      --end;
    if (end == 0) return t;
    char c = s[end - 1];
    if (c == ']') {
      int depth = 0;
      std::size_t i = end;
      while (i > 0) {
        --i;
        if (s[i] == ']') ++depth;
        if (s[i] == '[' && --depth == 0) break;
      }
      if (s[i] != '[') return t;
      t.index_expr += s.substr(i + 1, end - 1 - (i + 1)) + " ";
      end = i;
      continue;
    }
    if (is_ident_char(c)) {
      std::string name = ident_before(s, end);
      if (name.empty()) return t;
      std::size_t start = end - name.size();
      std::size_t j = start;
      while (j > 0 &&
             std::isspace(static_cast<unsigned char>(s[j - 1])) != 0)
        --j;
      if (j > 0 && s[j - 1] == '.') {
        end = j - 1;
        continue;
      }
      if (j > 1 && s[j - 1] == '>' && s[j - 2] == '-') {
        end = j - 2;
        continue;
      }
      t.base = name;
      t.valid = true;
      return t;
    }
    return t;  // ')' or operator: a call result or something unanalyzable
  }
}

WriteTarget parse_chain_fwd(const std::string& s, std::size_t i) {
  WriteTarget t;
  i = skip_space(s, i);
  std::string base = read_ident_at(s, i);
  if (base.empty()) return t;
  t.base = base;
  t.valid = true;
  i += base.size();
  while (i < s.size()) {
    i = skip_space(s, i);
    if (s[i] == '[') {
      std::size_t close = match_bracket(s, i, '[', ']');
      if (close == std::string::npos) break;
      t.index_expr += s.substr(i + 1, close - 1 - (i + 1)) + " ";
      i = close;
    } else if (s[i] == '.') {
      ++i;
      i += read_ident_at(s, skip_space(s, i)).size();
    } else if (s[i] == '-' && i + 1 < s.size() && s[i + 1] == '>') {
      i += 2;
      i += read_ident_at(s, skip_space(s, i)).size();
    } else {
      break;
    }
  }
  return t;
}

namespace {

/// Container mutators that count as writes when called on a chain.
const char* kMutators[] = {"push_back", "emplace_back", "insert", "emplace",
                           "erase",     "clear",        "resize", "assign",
                           "append"};

}  // namespace

void scan_writes(
    const std::string& code, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, const WriteTarget&, const char*)>&
        fn) {
  for (std::size_t i = begin; i < end; ++i) {
    char c = code[i];
    char prev = i > 0 ? code[i - 1] : '\0';
    char next = i + 1 < end ? code[i + 1] : '\0';
    if (c == '=' && next == '=') {
      ++i;
      continue;
    }
    if (c == '=') {
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>') {
        // <= >= == != … except the shift-assigns <<= and >>=.
        bool shift_assign = (prev == '<' || prev == '>') && i >= 2 &&
                            code[i - 2] == prev;
        if (!shift_assign) continue;
        fn(i, parse_chain_back(code, i - 2), "shift-assigns");
        continue;
      }
      if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
          prev == '%' || prev == '&' || prev == '|' || prev == '^') {
        fn(i, parse_chain_back(code, i - 1), "accumulates into");
        continue;
      }
      fn(i, parse_chain_back(code, i), "assigns to");
      continue;
    }
    if ((c == '+' && next == '+') || (c == '-' && next == '-')) {
      std::size_t j = i;
      while (j > begin &&
             std::isspace(static_cast<unsigned char>(code[j - 1])) != 0)
        --j;
      if (j > 0 && (is_ident_char(code[j - 1]) || code[j - 1] == ']')) {
        fn(i, parse_chain_back(code, j), "increments");  // postfix
      } else {
        fn(i, parse_chain_fwd(code, i + 2), "increments");  // prefix
      }
      ++i;
      continue;
    }
  }

  // Mutating container calls: `shared.push_back(x)` and friends.
  for (const char* m : kMutators) {
    std::size_t pos = begin;
    while ((pos = find_token(code, m, pos)) != std::string::npos &&
           pos < end) {
      std::size_t at = pos;
      pos += std::string(m).size();
      bool via_dot = at > 0 && code[at - 1] == '.';
      bool via_arrow = at > 1 && code[at - 1] == '>' && code[at - 2] == '-';
      if (!via_dot && !via_arrow) continue;
      std::size_t open = skip_space(code, at + std::string(m).size());
      if (open >= code.size() || code[open] != '(') continue;
      fn(at, parse_chain_back(code, via_dot ? at - 1 : at - 2), "mutates");
    }
  }
}

namespace {

/// Parse one capture entry ("&", "=", "this", "&x", "x", "x = expr", ...).
void parse_capture(const std::string& entry, LambdaInfo& info) {
  std::string cap = trim_spaces(entry);
  if (cap.empty()) return;
  if (cap == "&") {
    info.captures_default_ref = true;
    return;
  }
  if (cap == "=") {
    info.captures_default_copy = true;
    return;
  }
  if (cap == "this" || cap == "*this") {
    info.captures_this = true;
    return;
  }
  bool by_ref = cap[0] == '&';
  if (by_ref) cap = trim_spaces(cap.substr(1));
  std::string name = read_ident_at(cap, 0);  // init-captures: name before '='
  if (name.empty()) return;
  if (by_ref)
    info.ref_captures.push_back(name);
  else
    info.copy_captures.push_back(name);
}

/// Parameter names of a lambda/function parameter list (the text between
/// the parentheses): the last identifier of each top-level chunk, with any
/// default argument stripped first.
std::vector<std::string> parse_param_names(const std::string& s,
                                           std::size_t begin,
                                           std::size_t end) {
  std::vector<std::string> names;
  for (const std::string& raw : split_top_level(s, begin, end)) {
    std::string chunk = raw;
    // Strip a default argument at top level.
    int depth = 0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      char c = chunk[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == '=' && depth == 0 &&
          (i + 1 >= chunk.size() || chunk[i + 1] != '=') &&
          (i == 0 || (chunk[i - 1] != '=' && chunk[i - 1] != '!' &&
                      chunk[i - 1] != '<' && chunk[i - 1] != '>'))) {
        chunk = chunk.substr(0, i);
        break;
      }
    }
    std::vector<Token> toks = tokenize_code(chunk);
    for (auto it = toks.rbegin(); it != toks.rend(); ++it) {
      if (it->ident && !is_cpp_keyword(it->text)) {
        names.push_back(it->text);
        break;
      }
    }
  }
  return names;
}

/// True when the '[' at `pos` begins a lambda introducer (as opposed to a
/// subscript or an [[attribute]]).
bool is_lambda_intro(const std::string& code, std::size_t pos) {
  if (pos + 1 < code.size() && code[pos + 1] == '[') return false;
  std::size_t i = pos;
  while (i > 0 &&
         std::isspace(static_cast<unsigned char>(code[i - 1])) != 0)
    --i;
  if (i == 0) return true;
  char prev = code[i - 1];
  if (is_ident_char(prev)) {
    // `return [..]` is a lambda; `name[..]` is a subscript.
    std::string word = ident_before(code, i);
    return word == "return" || word == "co_return" || word == "co_yield";
  }
  return prev == '(' || prev == ',' || prev == '=' || prev == '{' ||
         prev == ';' || prev == '<' || prev == '>' || prev == '&' ||
         prev == '|' || prev == '!' || prev == '?' || prev == ':' ||
         prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
         prev == '%';
}

void scan_lambdas(const std::string& code, SymbolTable& table) {
  for (std::size_t pos = 0; pos < code.size(); ++pos) {
    if (code[pos] != '[' || !is_lambda_intro(code, pos)) continue;
    std::size_t intro_end = match_bracket(code, pos, '[', ']');
    if (intro_end == std::string::npos) continue;

    LambdaInfo info;
    info.intro = pos;
    for (const std::string& cap :
         split_top_level(code, pos + 1, intro_end - 1))
      parse_capture(cap, info);

    std::size_t i = skip_space(code, intro_end);
    if (i < code.size() && code[i] == '(') {
      std::size_t close = match_bracket(code, i, '(', ')');
      if (close == std::string::npos) continue;
      info.params = parse_param_names(code, i + 1, close - 1);
      i = skip_space(code, close);
    }
    // Skip `mutable`, `noexcept(...)`, `-> Type` up to the body brace. Give
    // up at statement punctuation: then the '[' was not a lambda after all.
    while (i < code.size() && code[i] != '{') {
      if (code[i] == ';' || code[i] == ')' || code[i] == ',' ||
          code[i] == ']' || code[i] == '}') {
        i = std::string::npos;
        break;
      }
      if (code[i] == '(') {  // noexcept(...)
        i = match_bracket(code, i, '(', ')');
        if (i == std::string::npos) break;
        continue;
      }
      if (code[i] == '<') {  // template args of a trailing return type
        std::size_t close = match_bracket(code, i, '<', '>');
        if (close == std::string::npos) {
          ++i;
          continue;
        }
        i = close;
        continue;
      }
      ++i;
    }
    if (i == std::string::npos || i >= code.size()) continue;
    std::size_t body_end = match_bracket(code, i, '{', '}');
    if (body_end == std::string::npos) continue;
    info.body_begin = i;
    info.body_end = body_end;
    table.lambdas.push_back(info);
  }
}

void scan_atomic_vars(const std::string& code, SymbolTable& table) {
  std::size_t pos = 0;
  while ((pos = code.find("std::atomic", pos)) != std::string::npos) {
    std::size_t i = pos + 11;
    if (i < code.size() && code[i] == '<') {
      i = match_bracket(code, i, '<', '>');
      if (i == std::string::npos) break;
    }
    i = skip_space(code, i);
    std::string name = read_ident_at(code, i);
    if (!name.empty() && !is_cpp_keyword(name)) table.atomic_vars.insert(name);
    pos += 11;
  }
}

/// `Rng name`, `Rng& name`, `std::mt19937_64 name`: RNG-engine variables
/// and parameters. The declarator may carry &/*; `Rng(expr)` temporaries
/// yield no name and are skipped (flow/rng-escape scans those separately).
void scan_rng_vars(const std::string& code, SymbolTable& table) {
  for (const char* ty : {"Rng", "std::mt19937_64", "std::mt19937"}) {
    const std::string needle(ty);
    std::size_t pos = 0;
    while ((pos = find_token(code, needle, pos)) != std::string::npos) {
      std::size_t i = skip_space(code, pos + needle.size());
      pos += needle.size();
      while (i < code.size() && (code[i] == '&' || code[i] == '*'))
        i = skip_space(code, i + 1);
      std::string name = read_ident_at(code, i);
      if (!name.empty() && !is_cpp_keyword(name)) table.rng_vars.insert(name);
    }
  }
}

bool is_decl_keyword(const std::string& t) {
  return t == "class" || t == "struct" || t == "enum" || t == "union" ||
         t == "concept";
}

/// Names a file introduces at namespace scope (heuristic): class/struct/
/// enum/union/concept heads, alias and typedef declarations, using-
/// declarations, free functions and namespace-scope constants. Opaque
/// braces (function bodies, class bodies) are skipped.
void scan_namespace_decls(const std::string& code, SymbolTable& table) {
  std::set<std::string>& out = table.namespace_decls;
  std::vector<Token> toks = tokenize_code(code);
  // Brace stack: true = transparent (namespace/extern), false = opaque.
  std::vector<bool> braces;
  auto transparent = [&] {
    for (bool b : braces)
      if (!b) return false;
    return true;
  };
  bool next_brace_transparent = false;
  int paren_depth = 0;  // function parameters are not namespace-scope names
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") {
      ++paren_depth;
      continue;
    }
    if (t == ")") {
      if (paren_depth > 0) --paren_depth;
      continue;
    }
    if (t == "{") {
      braces.push_back(next_brace_transparent);
      next_brace_transparent = false;
      continue;
    }
    if (t == "}") {
      if (!braces.empty()) braces.pop_back();
      continue;
    }
    if (!transparent() || paren_depth > 0) continue;
    if (t == "namespace" || t == "extern") {
      next_brace_transparent = true;
      continue;
    }
    if (is_decl_keyword(t)) {
      std::size_t j = i + 1;
      if (j < toks.size() &&
          (toks[j].text == "class" || toks[j].text == "struct"))
        ++j;  // enum class / enum struct
      while (j < toks.size() && toks[j].text == "[") {  // [[attributes]]
        while (j < toks.size() && toks[j].text != "]") ++j;
        ++j;
      }
      if (j < toks.size() && toks[j].ident) out.insert(toks[j].text);
      continue;
    }
    if (t == "using") {
      // using Alias = ...;   |   using ns::Name;   (skip using namespace)
      if (i + 1 < toks.size() && toks[i + 1].text == "namespace") continue;
      std::string last_ident;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "=" || toks[j].text == ";") break;
        if (toks[j].ident) last_ident = toks[j].text;
      }
      if (!last_ident.empty()) out.insert(last_ident);
      i = j;
      continue;
    }
    if (t == "typedef") {
      std::string last_ident;
      std::size_t j = i + 1;
      for (; j < toks.size() && toks[j].text != ";"; ++j)
        if (toks[j].ident) last_ident = toks[j].text;
      if (!last_ident.empty()) out.insert(last_ident);
      i = j;
      continue;
    }
    // Free function: identifier immediately followed by '(' — unless it is
    // a qualified out-of-line definition (preceded by "::"), which declares
    // nothing new.
    if (toks[i].ident && i + 1 < toks.size() && toks[i + 1].text == "(") {
      bool qualified = i >= 2 && toks[i - 1].text == ":" &&
                       toks[i - 2].text == ":";
      bool preceded_by_type = i > 0 && (toks[i - 1].ident ||
                                        toks[i - 1].text == ">" ||
                                        toks[i - 1].text == "&" ||
                                        toks[i - 1].text == "*");
      if (!qualified && preceded_by_type) out.insert(t);
      continue;
    }
    // Namespace-scope constant / variable: identifier followed by '=' or
    // ';' with a type-ish token before it.
    if (toks[i].ident && i > 0 && i + 1 < toks.size() &&
        (toks[i + 1].text == "=" || toks[i + 1].text == ";") &&
        (toks[i - 1].ident || toks[i - 1].text == ">" ||
         toks[i - 1].text == "&" || toks[i - 1].text == "*")) {
      out.insert(t);
      continue;
    }
  }
}

}  // namespace

SourceFile lex_file(const std::string& rel, const std::string& text) {
  SourceFile f;
  f.rel = rel;
  f.is_header = rel.size() > 4 && rel.compare(rel.size() - 4, 4, ".hpp") == 0;
  if (rel.rfind("src/", 0) == 0) {
    std::size_t slash = rel.find('/', 4);
    if (slash != std::string::npos) f.module_name = rel.substr(4, slash - 4);
  }
  f.code = strip_comments_and_strings(text);

  f.line_starts_.push_back(0);
  for (std::size_t i = 0; i < f.code.size(); ++i)
    if (f.code[i] == '\n') f.line_starts_.push_back(i + 1);

  // Walk lines for preprocessor state. Whether a line is a directive is
  // decided on the stripped line, so a `#include` inside a comment is not
  // one; the stripper blanks the "..." of project includes, so the
  // directive text itself comes from the raw line (columns line up).
  std::istringstream raw(text);
  std::istringstream stripped(f.code);
  std::string raw_line;
  std::string code_line;
  int cond_depth = 0;
  int lineno = 0;
  while (std::getline(raw, raw_line)) {
    std::getline(stripped, code_line);
    ++lineno;
    std::size_t first = code_line.find_first_not_of(" \t");
    bool is_directive = first != std::string::npos && code_line[first] == '#';
    if (is_directive) {
      std::string directive = raw_line.substr(first + 1);
      std::size_t d = directive.find_first_not_of(" \t");
      directive = d == std::string::npos ? "" : directive.substr(d);
      if (directive.rfind("if", 0) == 0) {
        ++cond_depth;
      } else if (directive.rfind("endif", 0) == 0) {
        cond_depth = std::max(0, cond_depth - 1);
      } else if (directive.rfind("define", 0) == 0) {
        std::size_t i = 6;
        while (i < directive.size() &&
               std::isspace(static_cast<unsigned char>(directive[i])) != 0)
          ++i;
        std::size_t j = i;
        while (j < directive.size() && is_ident_char(directive[j])) ++j;
        if (j > i) f.defines.push_back(directive.substr(i, j - i));
      } else if (directive.rfind("include", 0) == 0) {
        std::size_t open = directive.find_first_of("<\"", 7);
        if (open != std::string::npos) {
          char close = directive[open] == '<' ? '>' : '"';
          std::size_t end = directive.find(close, open + 1);
          if (end != std::string::npos) {
            f.includes.push_back(Include{
                lineno, directive[open] == '<',
                directive.substr(open + 1, end - open - 1), cond_depth});
          }
        }
      }
      continue;  // directive lines contribute no identifier usage
    }
    // Identifier tokens of this (stripped) line.
    std::size_t i = 0;
    while (i < code_line.size()) {
      if (is_ident_char(code_line[i]) &&
          std::isdigit(static_cast<unsigned char>(code_line[i])) == 0) {
        std::size_t j = i;
        while (j < code_line.size() && is_ident_char(code_line[j])) ++j;
        std::string tok = code_line.substr(i, j - i);
        if (!is_cpp_keyword(tok)) f.identifiers.emplace(tok, lineno);
        i = j;
      } else if (is_ident_char(code_line[i])) {  // number: skip the run
        while (i < code_line.size() && is_ident_char(code_line[i])) ++i;
      } else {
        ++i;
      }
    }
  }

  scan_namespace_decls(f.code, f.symbols_);
  scan_atomic_vars(f.code, f.symbols_);
  scan_rng_vars(f.code, f.symbols_);
  scan_lambdas(f.code, f.symbols_);
  return f;
}

std::string read_file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<SourceFile> load_corpus(const std::string& root) {
  fs::path src = fs::path(root) / "src";
  if (!fs::is_directory(src))
    throw std::runtime_error("qdc_analyze: no src/ directory under " + root);
  auto is_source = [](const fs::directory_entry& e) {
    return e.is_regular_file() && (e.path().extension() == ".hpp" ||
                                   e.path().extension() == ".cpp");
  };
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src))
    if (is_source(entry)) paths.push_back(entry.path());
  for (const char* dir : {"bench", "tests"}) {
    if (!fs::is_directory(fs::path(root) / dir)) continue;
    for (const auto& entry : fs::directory_iterator(fs::path(root) / dir))
      if (is_source(entry)) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths)
    files.push_back(lex_file(fs::relative(p, root).generic_string(),
                             read_file_text(p.string())));
  return files;
}

}  // namespace qdc::analyze
