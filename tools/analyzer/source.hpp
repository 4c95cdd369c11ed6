// Corpus loading, the lightweight lexer, and the per-file symbol table
// behind every qdc_analyze check.
//
// A SourceFile is a preprocessor-aware view of one translation-unit
// fragment: comments and string/char literals are blanked (preserving line
// structure), #include directives are recorded together with the #if
// nesting depth they live at, and every identifier token is indexed with
// its first line of occurrence. On top of that view each file carries a
// SymbolTable — namespace-scope declarations, variables of interesting
// types (std::atomic), and every lambda expression with its captures,
// parameters and body range — so checks can reason about closures without
// re-lexing. Checks work on this view only; the analyzer never runs a real
// compiler.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace qdc::analyze {

struct Include {
  int line = 0;
  bool angled = false;  ///< <...> include (system) vs "..." (project)
  std::string path;     ///< as written inside the delimiters
  int cond_depth = 0;   ///< #if/#ifdef nesting depth at the directive
};

// ---------------------------------------------------------------------------
// Expression scanning utilities, shared by every check. All operate on the
// stripped `code` view (comments/strings blanked) of a SourceFile.

/// True for [A-Za-z0-9_].
bool is_ident_char(char c);

/// Offset of the next whole-token occurrence of `needle` in `hay` at or
/// after `from`; npos when absent.
std::size_t find_token(const std::string& hay, const std::string& needle,
                       std::size_t from = 0);

/// Offset just past the bracket matching the opener at `open` (`s[open]`
/// must be `lhs`); npos when unbalanced. Handles nesting of the same pair.
std::size_t match_bracket(const std::string& s, std::size_t open, char lhs,
                          char rhs);

/// First non-whitespace offset at or after `i`.
std::size_t skip_space(const std::string& s, std::size_t i);

/// Identifier starting at `i` ("" when none).
std::string read_ident_at(const std::string& s, std::size_t i);

/// Identifier ending right before `end` (skipping trailing whitespace).
std::string ident_before(const std::string& s, std::size_t end);

/// A lexed token: identifier or single punctuation character.
struct Token {
  std::string text;
  std::size_t offset = 0;
  bool ident = false;
};

/// Tokenize stripped code into identifier / punctuation tokens. Numbers are
/// skipped; preprocessor directive lines are skipped (the lexer already
/// records them).
std::vector<Token> tokenize_code(const std::string& code);

/// True for C++ keywords the checks must never treat as identifiers.
bool is_cpp_keyword(const std::string& s);

/// Variable names declared in code[begin, end) — the "ident ident =|;|{|("
/// heuristic plus range-for heads and structured bindings. Used to build
/// the set of lambda-local variables.
std::set<std::string> declared_vars_in(const std::string& code,
                                       std::size_t begin, std::size_t end);

/// Split s[begin, end) on commas at bracket depth zero (argument and
/// parameter lists, capture lists).
std::vector<std::string> split_top_level(const std::string& s,
                                         std::size_t begin, std::size_t end);

/// Strip leading/trailing whitespace.
std::string trim_spaces(const std::string& s);

// ---------------------------------------------------------------------------
// Write-target parsing, shared by the parallel/ and flow/ checks and the
// call graph's parameter-flow records.

/// A write's left-hand side: the chain base identifier plus every subscript
/// expression crossed on the way (`slots[s].sum` -> base "slots", index "s").
struct WriteTarget {
  std::string base;
  std::string index_expr;
  bool valid = false;
};

/// Parse a chain ending (exclusive) at `end`: ident, ident[expr],
/// ident.field, ident->field[expr].field, ...
WriteTarget parse_chain_back(const std::string& s, std::size_t end);

/// Parse a chain starting at `i` (for prefix ++/--).
WriteTarget parse_chain_fwd(const std::string& s, std::size_t i);

/// Invokes fn(offset, target, verb) for every write in code[begin, end):
/// plain/compound/shift assignment, ++/--, and mutating container calls
/// (push_back, insert, resize, ...). `verb` is a human-readable phrase
/// ("assigns to", "accumulates into", ...). Comparison operators are not
/// writes.
void scan_writes(
    const std::string& code, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, const WriteTarget&, const char*)>&
        fn);

// ---------------------------------------------------------------------------
// Per-file symbol table.

/// One lambda expression: capture list, parameter names, body range.
struct LambdaInfo {
  std::size_t intro = 0;       ///< offset of the '[' introducer
  std::size_t body_begin = 0;  ///< offset of the body '{'
  std::size_t body_end = 0;    ///< offset one past the matching '}'
  bool captures_default_ref = false;   ///< [&]
  bool captures_default_copy = false;  ///< [=]
  bool captures_this = false;          ///< [this] / [*this]
  std::vector<std::string> ref_captures;   ///< [&x] and [&x = expr]
  std::vector<std::string> copy_captures;  ///< [x] and [x = expr]
  std::vector<std::string> params;         ///< declared parameter names

  bool captures_by_ref(const std::string& name) const;
};

/// Symbols of one file, computed once at load time.
struct SymbolTable {
  /// Names introduced at namespace scope: class/struct/enum/union/concept,
  /// aliases, typedefs, using-declarations, free functions and
  /// namespace-scope constants. (#defines live in SourceFile::defines.)
  std::set<std::string> namespace_decls;

  /// Variables declared with a std::atomic<...> type anywhere in the file.
  std::set<std::string> atomic_vars;

  /// Variables (and parameters) declared with an RNG engine type — Rng,
  /// std::mt19937_64, std::mt19937 — anywhere in the file. Feeds
  /// flow/rng-escape.
  std::set<std::string> rng_vars;

  /// Every lambda expression, in source order.
  std::vector<LambdaInfo> lambdas;
};

struct SourceFile {
  std::string rel;          ///< path relative to the analysis root (posix)
  std::string module_name;  ///< first component under src/ ("" if none)
  bool is_header = false;
  std::string code;         ///< comments/strings blanked, lines preserved
  std::vector<Include> includes;
  std::vector<std::string> defines;  ///< macro names #define'd in this file

  /// Identifier token -> first line it occurs on. Preprocessor directive
  /// lines are excluded so `#include <vector>` does not count as a use of
  /// `vector`.
  std::map<std::string, int> identifiers;

  bool uses(const std::string& id) const {
    return identifiers.find(id) != identifiers.end();
  }
  int first_use_line(const std::string& id) const {
    auto it = identifiers.find(id);
    return it == identifiers.end() ? 0 : it->second;
  }

  /// The file's symbol table (built by lex_file, cheap to access).
  const SymbolTable& symbols() const { return symbols_; }

  /// 1-based line number of byte offset `pos` in `code`.
  int line_of(std::size_t pos) const;

 private:
  friend SourceFile lex_file(const std::string& rel, const std::string& text);
  std::vector<std::size_t> line_starts_;
  SymbolTable symbols_;
};

/// Blank comments and string/char literals with spaces; newlines survive so
/// line numbers in the result match the original text.
std::string strip_comments_and_strings(const std::string& text);

/// Lex one file's text into the SourceFile view used by checks.
SourceFile lex_file(const std::string& rel, const std::string& text);

/// Load and lex the corpus under `root`, sorted by rel path: every
/// *.hpp|*.cpp under src/ (recursive) plus those directly under bench/ and
/// tests/ when the directories exist. bench/ and tests/ are non-recursive,
/// so tests/analyzer_fixtures never joins the corpus. Their files get an
/// empty module_name, so the layering, determinism, parallel and contract
/// checks skip them (a bench harness may read the wall clock) while include
/// hygiene, flow and lint still apply. Throws std::runtime_error when
/// root/src does not exist.
std::vector<SourceFile> load_corpus(const std::string& root);

/// Whole file as a string (binary read; empty when unreadable).
std::string read_file_text(const std::string& path);

}  // namespace qdc::analyze
