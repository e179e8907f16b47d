#include "tools/psi_check/checker.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

namespace psi::check {

namespace {

namespace fs = std::filesystem;

/// The layer DAG (DESIGN.md §15.1). A file in layer L may include headers
/// from layers of strictly lower rank or its own layer; equal-rank
/// different-layer edges (match ↔ ml) are back-edges too.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},    {"graph", 1},   {"signature", 2},
      {"match", 3},   {"ml", 3},      {"core", 4},
      {"service", 5}, {"fsm", 6},
  };
  return kRanks;
}

/// Layers whose outputs are (or feed) query results: ordering and entropy
/// there can silently change answers, so the determinism rule binds.
bool IsResultLayer(const std::string& layer) {
  return layer == "graph" || layer == "signature" || layer == "match" ||
         layer == "core" || layer == "fsm";
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool IsSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/// True when any component of the root-relative path is `fixtures` —
/// psi_check's own seeded-violation fixture trees live under
/// tests/fixtures/ and must never leak into a repo scan. The check is on
/// the *relative* path so the self-tests can point --root at a tree that
/// itself lives under a fixtures/ directory.
bool InFixtureDir(const fs::path& path) {
  for (const auto& part : path) {
    if (part == "fixtures") return true;
  }
  return false;
}

/// The source files under root/dir (none when dir is absent), sorted, with
/// fixture trees skipped.
std::vector<fs::path> ListSources(const fs::path& root, const char* dir) {
  std::vector<fs::path> paths;
  std::error_code ec;
  if (!fs::is_directory(root / dir, ec)) return paths;
  for (auto it = fs::recursive_directory_iterator(root / dir, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    if (InFixtureDir(fs::relative(it->path(), root)) ||
        !IsSourceExtension(it->path())) {
      continue;
    }
    paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

bool IsWordChar(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// Whole-word substring search (identifier boundaries).
bool ContainsWord(const std::string& haystack, const std::string& word) {
  size_t pos = 0;
  while ((pos = haystack.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(haystack[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= haystack.size() || !IsWordChar(haystack[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool IsGuardMacro(const std::string& name) {
  return name == "PSI_GUARDED_BY" || name == "PSI_PT_GUARDED_BY";
}
bool IsAnnotationMacro(const std::string& name) {
  // Thread-annotation attribute macros take parenthesized arguments but do
  // not make a declaration a function.
  return name.rfind("PSI_", 0) == 0;
}

/// Skips a balanced token group starting at `pos` (which must point at the
/// opener). Returns the index one past the matching closer.
size_t SkipBalanced(const std::vector<Token>& toks, size_t pos,
                    const char* open, const char* close) {
  int depth = 0;
  for (; pos < toks.size(); ++pos) {
    if (IsPunct(toks[pos], open)) ++depth;
    if (IsPunct(toks[pos], close) && --depth == 0) return pos + 1;
    if (toks[pos].kind == Token::Kind::kEnd) break;
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Class/field model shared by the lock-guard and metrics rules.

struct FieldDecl {
  std::string name;
  int line = 0;
  std::vector<Token> type_tokens;  // declaration tokens before the name
  bool has_guard = false;          // PSI_GUARDED_BY / PSI_PT_GUARDED_BY
};

struct ClassInfo {
  std::string name;
  int line = 0;
  std::vector<FieldDecl> fields;
};

class ClassCollector {
 public:
  explicit ClassCollector(const std::vector<Token>& toks) : toks_(toks) {}

  std::vector<ClassInfo> Run() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!IsIdent(toks_[i], "class") && !IsIdent(toks_[i], "struct")) {
        continue;
      }
      if (i > 0 && IsIdent(toks_[i - 1], "enum")) continue;
      i = ScanClassHead(i + 1);
    }
    return std::move(classes_);
  }

 private:
  /// Parses from just after the class/struct keyword; on a definition,
  /// parses the body. Returns the index to resume the outer scan from.
  size_t ScanClassHead(size_t pos) {
    std::string name;
    int line = pos < toks_.size() ? toks_[pos].line : 0;
    while (pos < toks_.size()) {
      const Token& t = toks_[pos];
      if (t.kind == Token::Kind::kEnd) return pos;
      if (IsPunct(t, ";")) return pos;      // forward declaration
      if (IsPunct(t, "(")) {                 // attribute macro arguments
        pos = SkipBalanced(toks_, pos, "(", ")");
        continue;
      }
      if (IsPunct(t, ":") || IsPunct(t, "{")) break;
      if (t.kind == Token::Kind::kIdent && !IsAnnotationMacro(t.text) &&
          t.text != "final" && t.text != "alignas") {
        name = t.text;
        line = t.line;
      }
      ++pos;
    }
    while (pos < toks_.size() && !IsPunct(toks_[pos], "{")) ++pos;
    if (pos >= toks_.size()) return pos;
    ClassInfo info;
    info.name = name;
    info.line = line;
    const size_t end = ParseBody(pos + 1, &info);
    classes_.push_back(std::move(info));
    return end;
  }

  /// Parses one class body starting just inside `{`, collecting member
  /// fields and recursing into nested classes. Returns the index just past
  /// the closing `}`.
  size_t ParseBody(size_t pos, ClassInfo* info) {
    while (pos < toks_.size() && toks_[pos].kind != Token::Kind::kEnd) {
      const Token& t = toks_[pos];
      if (IsPunct(t, "}")) return pos + 1;
      if (IsPunct(t, ";")) {
        ++pos;
        continue;
      }
      // Access labels.
      if ((IsIdent(t, "public") || IsIdent(t, "private") ||
           IsIdent(t, "protected")) &&
          pos + 1 < toks_.size() && IsPunct(toks_[pos + 1], ":")) {
        pos += 2;
        continue;
      }
      pos = ParseMemberStatement(pos, info);
    }
    return pos;
  }

  size_t ParseMemberStatement(size_t pos, ClassInfo* info) {
    std::vector<Token> stmt;
    bool has_fn_parens = false;
    bool has_guard = false;
    bool skip_decl = false;  // using/typedef/friend/static/template/enum
    while (pos < toks_.size() && toks_[pos].kind != Token::Kind::kEnd) {
      const Token& t = toks_[pos];
      if (IsPunct(t, ";")) {
        ++pos;
        break;
      }
      if (IsPunct(t, "}")) return pos;  // class body closer; no semicolon
      if (stmt.empty() && t.kind == Token::Kind::kIdent &&
          (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
           t.text == "static" || t.text == "template" || t.text == "enum")) {
        skip_decl = true;
      }
      // `T& operator=(...) = delete;` short-circuits at the `=` before its
      // parens are seen — never a field.
      if (IsIdent(t, "operator")) skip_decl = true;
      if ((IsIdent(t, "class") || IsIdent(t, "struct")) &&
          !(pos > 0 && IsIdent(toks_[pos - 1], "enum"))) {
        // Nested type definition: collect it as its own class, then keep
        // consuming this statement (there may be declarators after `}`).
        pos = ScanClassHeadNested(pos + 1);
        skip_decl = true;  // the nested type itself is not a field
        continue;
      }
      if (IsPunct(t, "(")) {
        const size_t after = SkipBalanced(toks_, pos, "(", ")");
        if (!stmt.empty() && stmt.back().kind == Token::Kind::kIdent &&
            IsAnnotationMacro(stmt.back().text)) {
          if (IsGuardMacro(stmt.back().text)) has_guard = true;
          stmt.pop_back();  // drop the macro name; its args are skipped
        } else {
          has_fn_parens = true;
        }
        pos = after;
        continue;
      }
      if (IsPunct(t, "{")) {
        if (has_fn_parens || stmt.empty()) {
          // Function body (or stray block): skip it; a definition needs no
          // trailing semicolon.
          pos = SkipBalanced(toks_, pos, "{", "}");
          if (pos < toks_.size() && IsPunct(toks_[pos], ";")) ++pos;
          return pos;
        }
        // Brace initializer on a field: skip its contents.
        pos = SkipBalanced(toks_, pos, "{", "}");
        continue;
      }
      if (IsPunct(t, "=")) {
        // Initializer (or `= default` — but those follow parens and exit
        // above at the `;`). Stop collecting declaration tokens.
        ++pos;
        while (pos < toks_.size() && !IsPunct(toks_[pos], ";") &&
               !IsPunct(toks_[pos], "}") &&
               toks_[pos].kind != Token::Kind::kEnd) {
          if (IsPunct(toks_[pos], "{")) {
            pos = SkipBalanced(toks_, pos, "{", "}");
            continue;
          }
          ++pos;
        }
        continue;
      }
      stmt.push_back(t);
      ++pos;
    }
    if (skip_decl || has_fn_parens || stmt.empty()) return pos;
    // Field declaration: the name is the last identifier.
    size_t name_idx = stmt.size();
    for (size_t i = stmt.size(); i-- > 0;) {
      if (stmt[i].kind == Token::Kind::kIdent) {
        name_idx = i;
        break;
      }
    }
    if (name_idx == stmt.size()) return pos;
    FieldDecl field;
    field.name = stmt[name_idx].text;
    field.line = stmt[name_idx].line;
    field.has_guard = has_guard;
    field.type_tokens.assign(stmt.begin(), stmt.begin() + name_idx);
    info->fields.push_back(std::move(field));
    return pos;
  }

  /// Like ScanClassHead but appends to classes_ from a nested context.
  size_t ScanClassHeadNested(size_t pos) { return ScanClassHead(pos); }

  const std::vector<Token>& toks_;
  std::vector<ClassInfo> classes_;
};

/// True when the declaration tokens declare a by-value util::Mutex (a
/// `Mutex&` / `Mutex*` member is a reference to someone else's lock).
bool DeclaresMutexByValue(const FieldDecl& field) {
  for (size_t i = 0; i < field.type_tokens.size(); ++i) {
    if (!IsIdent(field.type_tokens[i], "Mutex")) continue;
    const bool next_is_indirect =
        i + 1 < field.type_tokens.size() &&
        (IsPunct(field.type_tokens[i + 1], "&") ||
         IsPunct(field.type_tokens[i + 1], "*"));
    if (!next_is_indirect) return true;
  }
  return false;
}

bool TypeMentions(const FieldDecl& field, std::string_view ident) {
  for (const Token& t : field.type_tokens) {
    if (IsIdent(t, ident)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Function declarations, for the unused-decl rule.

/// Words that can stand before `name(` without `name` being a declared
/// function: statement keywords and the specifiers that precede a
/// constructor (`explicit Foo(`).
bool IsNonTypeKeyword(const std::string& s) {
  static const std::set<std::string> kWords = {
      "return",   "else",      "new",       "delete",    "throw",
      "case",     "goto",      "co_return", "co_await",  "co_yield",
      "if",       "while",     "for",       "switch",    "catch",
      "do",       "try",       "sizeof",    "alignof",   "decltype",
      "typeid",   "noexcept",  "explicit",  "virtual",   "static",
      "inline",   "constexpr", "consteval", "friend",    "extern",
      "typedef",  "using",     "template",  "typename",  "class",
      "struct",   "union",     "enum",      "namespace", "public",
      "private",  "protected", "operator",  "const",     "volatile",
      "mutable",  "default",   "this",      "alignas",   "static_assert",
      "requires", "concept"};
  return kWords.count(s) != 0;
}

bool IsBuiltinType(const std::string& s) {
  return s == "void" || s == "bool" || s == "char" || s == "int" ||
         s == "short" || s == "long" || s == "float" || s == "double" ||
         s == "unsigned" || s == "signed" || s == "auto";
}

/// PSI_GUARDED_BY and friends: all caps, so never a function name here.
bool IsMacroName(const std::string& s) {
  return std::none_of(s.begin(), s.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0;
  });
}

/// True when toks[i] is `name(...)` followed by optional qualifiers and a
/// `{`: the head of a function definition, which is never a call.
bool IsDefinitionHead(const std::vector<Token>& toks, size_t i) {
  if (toks[i].kind != Token::Kind::kIdent || i + 1 >= toks.size() ||
      !IsPunct(toks[i + 1], "(")) {
    return false;
  }
  size_t j = SkipBalanced(toks, i + 1, "(", ")");
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (IsIdent(t, "const") || IsIdent(t, "override") ||
        IsIdent(t, "final") || IsIdent(t, "mutable") || IsPunct(t, "&")) {
      ++j;
    } else if (IsIdent(t, "noexcept") ||
               (t.kind == Token::Kind::kIdent && IsAnnotationMacro(t.text))) {
      ++j;
      if (j < toks.size() && IsPunct(toks[j], "(")) {
        j = SkipBalanced(toks, j, "(", ")");
      }
    } else {
      break;
    }
  }
  return j < toks.size() && IsPunct(toks[j], "{");
}

struct FunctionDecl {
  std::string name;
  int line = 0;
  size_t token = 0;  // index of the name token
  std::string cls;   // enclosing class; "" at namespace scope
};

/// Collects the functions a header declares at namespace and class scope.
/// Function bodies, enums and initializers are skipped whole, so nothing
/// inside them is mistaken for a declaration.
class FunctionDeclCollector {
 public:
  explicit FunctionDeclCollector(const std::vector<Token>& toks)
      : toks_(toks) {}

  std::vector<FunctionDecl> Run() {
    ParseScope(0, "");
    return std::move(decls_);
  }

 private:
  /// Parses declarations until the `}` closing this scope; `cls` names the
  /// enclosing class ("" at namespace scope). Returns the index past `}`.
  size_t ParseScope(size_t pos, const std::string& cls) {
    size_t start = pos;  // first token of the current statement
    while (pos < toks_.size() && toks_[pos].kind != Token::Kind::kEnd) {
      const Token& t = toks_[pos];
      if (IsPunct(t, "}")) return pos + 1;
      if (IsPunct(t, ";")) {
        Declarator(start, pos, cls);
        start = ++pos;
        continue;
      }
      if ((IsIdent(t, "public") || IsIdent(t, "private") ||
           IsIdent(t, "protected")) &&
          pos + 1 < toks_.size() && IsPunct(toks_[pos + 1], ":")) {
        start = pos += 2;
        continue;
      }
      if (IsPunct(t, "(")) {
        pos = SkipBalanced(toks_, pos, "(", ")");
        continue;
      }
      if (!IsPunct(t, "{")) {
        ++pos;
        continue;
      }
      bool is_namespace = false;
      bool is_enum = false;
      bool is_class = false;
      std::string name;
      for (size_t k = start; k < pos; ++k) {
        const Token& s = toks_[k];
        if (IsIdent(s, "namespace") || IsIdent(s, "extern")) {
          is_namespace = true;
        }
        if (IsIdent(s, "enum")) is_enum = true;
        if (IsIdent(s, "class") || IsIdent(s, "struct") ||
            IsIdent(s, "union")) {
          is_class = true;
          name.clear();
        }
        if (IsPunct(s, ":") && is_class) break;  // base-clause follows
        if (s.kind == Token::Kind::kIdent && !IsNonTypeKeyword(s.text) &&
            !IsMacroName(s.text) && s.text != "final") {
          name = s.text;
        }
      }
      if (is_namespace) {
        start = pos = ParseScope(pos + 1, "");
      } else if (is_class && !is_enum) {
        start = pos = ParseScope(pos + 1, name);
      } else {
        // A function body, enum, initializer or lambda: skip it whole. A
        // function definition needs no trailing semicolon; anything else
        // runs on to its `;`.
        const bool function = Declarator(start, pos, cls);
        pos = SkipBalanced(toks_, pos, "{", "}");
        if (function || pos >= toks_.size() ||
            !(IsPunct(toks_[pos], ";") || IsPunct(toks_[pos], ","))) {
          start = pos;
        }
      }
    }
    return pos;
  }

  /// Records the function (if any) that the statement [start, end)
  /// declares. Returns true when the statement declares a function, even an
  /// exempt one.
  bool Declarator(size_t start, size_t end, const std::string& cls) {
    size_t i = start;
    if (i < end && IsIdent(toks_[i], "template") && i + 1 < end &&
        IsPunct(toks_[i + 1], "<")) {
      i = SkipBalanced(toks_, i + 1, "<", ">");
    }
    for (; i < end; ++i) {
      const Token& t = toks_[i];
      if (IsIdent(t, "operator")) return true;
      if (IsPunct(t, "=")) return false;  // an initialized variable
      if (IsPunct(t, "(")) {
        i = SkipBalanced(toks_, i, "(", ")") - 1;
        continue;
      }
      if (t.kind != Token::Kind::kIdent || i + 1 >= end ||
          !IsPunct(toks_[i + 1], "(")) {
        continue;
      }
      if (IsNonTypeKeyword(t.text) || IsBuiltinType(t.text) ||
          IsMacroName(t.text)) {
        i = SkipBalanced(toks_, i + 1, "(", ")") - 1;
        continue;
      }
      if (i == start) return true;  // `Name(` opens it: a constructor
      const Token& prev = toks_[i - 1];
      const bool typed =
          (prev.kind == Token::Kind::kIdent &&
           (!IsNonTypeKeyword(prev.text) || IsIdent(prev, "const"))) ||
          IsPunct(prev, ">") || IsPunct(prev, "*") || IsPunct(prev, "&");
      // Constructors (`explicit Foo(`, `Foo(`), destructors (`~Foo(`) and
      // out-of-class definitions (`Foo::Bar(`) are not new declarations.
      if (!typed || t.text == cls) return true;
      for (size_t k = SkipBalanced(toks_, i + 1, "(", ")"); k < end; ++k) {
        if (IsIdent(toks_[k], "override") || IsIdent(toks_[k], "final")) {
          return true;
        }
      }
      // A friend declared in a class body is a namespace-scope function.
      const bool is_friend = std::any_of(
          toks_.begin() + static_cast<std::ptrdiff_t>(start),
          toks_.begin() + static_cast<std::ptrdiff_t>(i),
          [](const Token& s) { return IsIdent(s, "friend"); });
      decls_.push_back(
          FunctionDecl{t.text, t.line, i, is_friend ? std::string() : cls});
      return true;
    }
    return false;
  }

  const std::vector<Token>& toks_;
  std::vector<FunctionDecl> decls_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Loading

bool Checker::Load(const fs::path& root) {
  root_ = root;
  std::error_code ec;
  if (!fs::is_directory(root_ / "src", ec)) {
    error_ = "no src/ directory under root: " + root_.string();
    return false;
  }
  for (const fs::path& path : ListSources(root_, "src")) {
    std::string content;
    if (!ReadFile(path, &content)) {
      error_ = "unreadable file: " + path.string();
      return false;
    }
    SourceFile file;
    file.rel_path = fs::relative(path, root_).generic_string();
    // Layer = the directory directly under src/.
    const fs::path rel = fs::relative(path, root_ / "src");
    const std::string first = rel.begin()->generic_string();
    if (LayerRanks().count(first) != 0) file.layer = first;
    file.lexed = Lex(content);
    files_.push_back(std::move(file));
  }
  ReadFile(root_ / "DESIGN.md", &design_text_);
  for (const fs::path& path : ListSources(root_, "tests")) {
    std::string content;
    if (ReadFile(path, &content)) {
      tests_text_ += content;
      tests_text_ += '\n';
      test_files_.push_back(Lex(content));
    }
  }
  for (const char* dir : {"tools", "bench", "perfbench", "examples"}) {
    for (const fs::path& path : ListSources(root_, dir)) {
      std::string content;
      if (ReadFile(path, &content)) caller_files_.push_back(Lex(content));
    }
  }
  return true;
}

const SourceFile* Checker::Find(std::string_view rel_path) const {
  for (const SourceFile& f : files_) {
    if (f.rel_path == rel_path) return &f;
  }
  return nullptr;
}

void Checker::Report(const SourceFile& file, std::string rule, int line,
                     std::string message) {
  Violation v;
  v.rule = std::move(rule);
  v.file = file.rel_path;
  v.line = line;
  v.message = std::move(message);
  for (const Waiver& w : file.lexed.waivers) {
    if (w.malformed) continue;
    if (w.line != line && w.line != line - 1) continue;
    if (std::find(w.rules.begin(), w.rules.end(), v.rule) == w.rules.end()) {
      continue;
    }
    v.waived = true;
    v.waive_reason = w.reason;
    break;
  }
  violations_.push_back(std::move(v));
}

// ---------------------------------------------------------------------------
// Rules

void Checker::CheckWaiverSyntax(const SourceFile& file) {
  for (const Waiver& w : file.lexed.waivers) {
    if (!w.malformed) continue;
    Violation v;
    v.rule = "waiver";
    v.file = file.rel_path;
    v.line = w.line;
    v.message = "malformed psi-check annotation: " + w.error;
    violations_.push_back(std::move(v));  // never waivable
  }
}

void Checker::CheckLayering(const SourceFile& file) {
  if (file.layer.empty()) return;
  const int my_rank = LayerRanks().at(file.layer);
  for (const IncludeDirective& inc : file.lexed.includes) {
    if (inc.system) continue;
    const size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;
    const std::string target = inc.path.substr(0, slash);
    const auto it = LayerRanks().find(target);
    if (it == LayerRanks().end()) continue;  // not a layer-qualified path
    if (target == file.layer) continue;
    if (it->second >= my_rank) {
      Report(file, "layering", inc.line,
             "layer '" + file.layer + "' must not include '" + inc.path +
                 "' (layer '" + target +
                 "' is not below it in the DAG util -> graph -> signature "
                 "-> {match, ml} -> core -> service -> fsm)");
    }
  }
}

void Checker::CheckDeterminism(const SourceFile& file) {
  if (!IsResultLayer(file.layer)) return;
  const std::vector<Token>& toks = file.lexed.tokens;

  // Pass 1: identifiers declared with an unordered container type.
  std::set<std::string> unordered_vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        toks[i].text.rfind("unordered_", 0) != 0) {
      continue;
    }
    size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "<")) ++depth;
        if (IsPunct(toks[j], ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    // `unordered_map<...> name` — possibly through `> >` or `>&` noise.
    while (j < toks.size() &&
           (IsPunct(toks[j], "&") || IsPunct(toks[j], "*"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
      unordered_vars.insert(toks[j].text);
    }
  }

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    const bool next_is_call =
        i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    const bool member_access =
        i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], ">"));
    if ((t.text == "rand" || t.text == "srand") && next_is_call &&
        !member_access) {
      Report(file, "determinism", t.line,
             "call to " + t.text + "() in result layer '" + file.layer +
                 "' — use a seeded util::Rng");
    } else if (t.text == "random_device") {
      Report(file, "determinism", t.line,
             "std::random_device in result layer '" + file.layer +
                 "' — all entropy must come from explicit seeds");
    } else if (t.text == "system_clock") {
      Report(file, "determinism", t.line,
             "wall-clock (system_clock) in result layer '" + file.layer +
                 "' — steady_clock durations only");
    } else if (t.text == "time" && next_is_call && !member_access) {
      Report(file, "determinism", t.line,
             "call to time() in result layer '" + file.layer +
                 "' — wall-clock reads are banned");
    } else if (t.text == "mt19937" || t.text == "mt19937_64") {
      // Flag default-constructed (unseeded) engines only.
      size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) ++j;
      bool unseeded = false;
      if (j < toks.size() && IsPunct(toks[j], ";")) unseeded = true;
      if (j < toks.size() &&
          (IsPunct(toks[j], "(") || IsPunct(toks[j], "{"))) {
        const char* close = IsPunct(toks[j], "(") ? ")" : "}";
        unseeded = j + 1 < toks.size() && IsPunct(toks[j + 1], close);
      }
      if (unseeded) {
        Report(file, "determinism", t.line,
               "unseeded std::" + t.text + " in result layer '" +
                   file.layer + "' — seed explicitly or use util::Rng");
      }
    } else if (t.text == "for" && next_is_call) {
      // Range-for over an unordered container leaks hash-order.
      const size_t close = SkipBalanced(toks, i + 1, "(", ")");
      size_t colon = 0;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) --depth;
        if (depth == 1 && IsPunct(toks[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (size_t j = colon + 1; j + 1 < close; ++j) {
        if (toks[j].kind != Token::Kind::kIdent) continue;
        if (unordered_vars.count(toks[j].text) != 0 ||
            toks[j].text.rfind("unordered_", 0) == 0) {
          Report(file, "determinism", toks[j].line,
                 "range-iteration over unordered container '" +
                     toks[j].text + "' in result layer '" + file.layer +
                     "' — hash order can leak into results; iterate a "
                     "sorted copy or an index range");
          break;
        }
      }
    }
  }
}

void Checker::CheckLockGuards(const SourceFile& file) {
  const std::vector<ClassInfo> classes =
      ClassCollector(file.lexed.tokens).Run();
  for (const ClassInfo& cls : classes) {
    bool has_mutex = false;
    for (const FieldDecl& f : cls.fields) {
      if (DeclaresMutexByValue(f)) {
        has_mutex = true;
        break;
      }
    }
    if (!has_mutex) continue;
    for (const FieldDecl& f : cls.fields) {
      if (f.has_guard) continue;
      if (DeclaresMutexByValue(f) || TypeMentions(f, "Mutex") ||
          TypeMentions(f, "CondVar") || TypeMentions(f, "mutex") ||
          TypeMentions(f, "condition_variable")) {
        continue;  // the locks themselves
      }
      if (TypeMentions(f, "atomic")) continue;  // internally synchronized
      if (TypeMentions(f, "const") || TypeMentions(f, "constexpr")) continue;
      Report(file, "lock-guard", f.line,
             "field '" + f.name + "' of lock-owning class '" + cls.name +
                 "' is neither PSI_GUARDED_BY/PSI_PT_GUARDED_BY, atomic, "
                 "const, nor waived");
    }
  }
}

void Checker::CheckFaultSites() {
  static constexpr char kRegistryPath[] = "src/util/fault_sites.h";
  const SourceFile* registry = Find(kRegistryPath);
  if (registry == nullptr) {
    Violation v;
    v.rule = "fault-site";
    v.file = kRegistryPath;
    v.line = 0;
    v.message = "fault-site registry header is missing";
    violations_.push_back(std::move(v));
    return;
  }
  // Registry entries: `inline constexpr char kName[] = "value";`
  struct Entry {
    std::string name;
    std::string value;
    int line;
  };
  std::vector<Entry> entries;
  const std::vector<Token>& rtoks = registry->lexed.tokens;
  for (size_t i = 0; i + 5 < rtoks.size(); ++i) {
    if (!IsIdent(rtoks[i], "char")) continue;
    if (rtoks[i + 1].kind != Token::Kind::kIdent) continue;
    if (!IsPunct(rtoks[i + 2], "[") || !IsPunct(rtoks[i + 3], "]")) continue;
    if (!IsPunct(rtoks[i + 4], "=")) continue;
    if (rtoks[i + 5].kind != Token::Kind::kString) continue;
    entries.push_back(
        Entry{rtoks[i + 1].text, rtoks[i + 5].text, rtoks[i + 1].line});
  }
  std::set<std::string> entry_names;
  std::set<std::string> entry_values;
  for (const Entry& e : entries) {
    entry_names.insert(e.name);
    entry_values.insert(e.value);
  }

  std::set<std::string> used_names;
  for (const SourceFile& file : files_) {
    if (file.rel_path == kRegistryPath) continue;
    const std::vector<Token>& toks = file.lexed.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      // Hook call sites must name a registered constant.
      if ((IsIdent(toks[i], "PSI_INJECT_FAULT") ||
           IsIdent(toks[i], "PSI_FAULT_STALL")) &&
          i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
        const size_t close = SkipBalanced(toks, i + 1, "(", ")");
        std::string last_ident;
        bool has_string = false;
        for (size_t j = i + 2; j + 1 < close; ++j) {
          if (toks[j].kind == Token::Kind::kIdent) last_ident = toks[j].text;
          if (toks[j].kind == Token::Kind::kString) has_string = true;
        }
        if (has_string) {
          Report(file, "fault-site", toks[i].line,
                 "injection hook uses a raw string literal — name a "
                 "constant from util/fault_sites.h");
        } else if (entry_names.count(last_ident) == 0) {
          Report(file, "fault-site", toks[i].line,
                 "injection hook site '" + last_ident +
                     "' is not declared in util/fault_sites.h");
        } else {
          used_names.insert(last_ident);
        }
        i = close - 1;
        continue;
      }
      // Raw literals that shadow a registered site string.
      if (toks[i].kind == Token::Kind::kString &&
          entry_values.count(toks[i].text) != 0) {
        Report(file, "fault-site", toks[i].line,
               "raw site string \"" + toks[i].text +
                   "\" duplicates a registry entry — use the "
                   "util::faults constant");
      }
    }
  }

  for (const Entry& e : entries) {
    if (design_text_.find(e.value) == std::string::npos) {
      Report(*registry, "fault-site", e.line,
             "site \"" + e.value +
                 "\" is not documented in the DESIGN.md site table");
    }
    if (tests_text_.find(e.value) == std::string::npos &&
        !ContainsWord(tests_text_, e.name)) {
      Report(*registry, "fault-site", e.line,
             "site \"" + e.value + "\" (" + e.name +
                 ") is not exercised by any test under tests/");
    }
    if (used_names.count(e.name) == 0) {
      Report(*registry, "fault-site", e.line,
             "registered site '" + e.name +
                 "' has no PSI_INJECT_FAULT/PSI_FAULT_STALL hook in src/");
    }
  }
}

void Checker::CheckMetricsPairing() {
  const SourceFile* header = Find("src/service/metrics.h");
  const SourceFile* source = Find("src/service/metrics.cc");
  if (header == nullptr) return;  // repo (or fixture tree) has no metrics
  const std::vector<ClassInfo> classes =
      ClassCollector(header->lexed.tokens).Run();
  const ClassInfo* snapshot = nullptr;
  const ClassInfo* registry = nullptr;
  for (const ClassInfo& c : classes) {
    if (c.name == "MetricsSnapshot") snapshot = &c;
    if (c.name == "MetricsRegistry") registry = &c;
  }
  if (snapshot == nullptr) return;

  std::vector<const FieldDecl*> counters;
  std::set<std::string> counter_names;
  for (const FieldDecl& f : snapshot->fields) {
    if (!f.type_tokens.empty() && IsIdent(f.type_tokens[0], "uint64_t")) {
      counters.push_back(&f);
      counter_names.insert(f.name);
    }
  }

  // ToString body tokens (from metrics.cc).
  std::set<std::string> tostring_idents;
  bool found_tostring = false;
  if (source != nullptr) {
    const std::vector<Token>& toks = source->lexed.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "ToString")) continue;
      size_t j = i;
      while (j < toks.size() && !IsPunct(toks[j], "{") &&
             !IsPunct(toks[j], ";")) {
        ++j;
      }
      if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;
      const size_t close = SkipBalanced(toks, j, "{", "}");
      for (size_t k = j; k < close; ++k) {
        if (toks[k].kind == Token::Kind::kIdent) {
          tostring_idents.insert(toks[k].text);
        }
      }
      found_tostring = true;
      break;
    }
  }

  for (const FieldDecl* f : counters) {
    if (found_tostring && tostring_idents.count(f->name) == 0) {
      Report(*header, "metrics-pair", f->line,
             "counter '" + f->name +
                 "' is not emitted by MetricsSnapshot::ToString");
    }
    if (!ContainsWord(tests_text_, f->name)) {
      Report(*header, "metrics-pair", f->line,
             "counter '" + f->name + "' is not asserted in any test");
    }
  }

  if (registry != nullptr) {
    for (const FieldDecl& f : registry->fields) {
      if (!TypeMentions(f, "atomic") || !TypeMentions(f, "uint64_t")) {
        continue;
      }
      std::string base = f.name;
      if (!base.empty() && base.back() == '_') base.pop_back();
      if (counter_names.count(base) == 0) {
        Report(*header, "metrics-pair", f.line,
               "registry counter '" + f.name +
                   "' has no matching MetricsSnapshot field '" + base + "'");
      }
    }
  }
}

void Checker::CheckUnusedDecls() {
  struct Declared {
    const SourceFile* file;
    FunctionDecl decl;
  };
  std::vector<Declared> declared;
  // (file, token) of every collected declaration: not references.
  std::set<std::pair<const LexedFile*, size_t>> decl_tokens;
  for (const SourceFile& file : files_) {
    if (file.rel_path.size() < 2 ||
        file.rel_path.compare(file.rel_path.size() - 2, 2, ".h") != 0) {
      continue;
    }
    for (FunctionDecl& d : FunctionDeclCollector(file.lexed.tokens).Run()) {
      decl_tokens.insert({&file.lexed, d.token});
      declared.push_back(Declared{&file, std::move(d)});
    }
  }

  // Every referencing identifier counts for a namespace-scope function. A
  // member counts as referenced only through `.name`, `->name` or
  // `Class::name`, or unqualified inside a file that declares or defines
  // members of its class: a free function of the same name elsewhere does
  // not keep it alive.
  std::set<std::string> referenced;
  std::set<std::string> member_access;                       // .name ->name
  std::set<std::pair<std::string, std::string>> in_class;    // (class, name)
  auto collect = [&](const LexedFile& lexed) {
    const std::vector<Token>& toks = lexed.tokens;
    std::set<std::string> own_classes;
    for (const ClassInfo& c : ClassCollector(toks).Run()) {
      own_classes.insert(c.name);
    }
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind == Token::Kind::kIdent && IsPunct(toks[i + 1], "::") &&
          toks[i + 2].kind == Token::Kind::kIdent &&
          (IsDefinitionHead(toks, i + 2) || toks[i + 2].text == toks[i].text)) {
        own_classes.insert(toks[i].text);
      }
    }
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent ||
          decl_tokens.count({&lexed, i}) != 0 || IsDefinitionHead(toks, i)) {
        continue;
      }
      const std::string& name = toks[i].text;
      referenced.insert(name);
      const bool after_dot = i > 0 && IsPunct(toks[i - 1], ".");
      const bool after_arrow = i > 1 && IsPunct(toks[i - 1], ">") &&
                               IsPunct(toks[i - 2], "-");
      const bool after_scope = i > 0 && IsPunct(toks[i - 1], "::");
      if (after_dot || after_arrow) {
        member_access.insert(name);
      } else if (after_scope) {
        if (i > 1 && toks[i - 2].kind == Token::Kind::kIdent) {
          in_class.insert({toks[i - 2].text, name});
        }
      } else {
        for (const std::string& cls : own_classes) in_class.insert({cls, name});
      }
    }
    // A macro body is not tokenized, so a name it mentions counts for
    // members too.
    for (const std::string& name : lexed.macro_idents) {
      referenced.insert(name);
      member_access.insert(name);
    }
  };
  for (const SourceFile& file : files_) collect(file.lexed);
  for (const LexedFile& lexed : caller_files_) collect(lexed);

  for (const Declared& d : declared) {
    const std::string& name = d.decl.name;
    const bool used =
        d.decl.cls.empty()
            ? referenced.count(name) != 0
            : member_access.count(name) != 0 ||
                  in_class.count({d.decl.cls, name}) != 0;
    if (used) continue;
    const std::string what =
        d.decl.cls.empty() ? "function '" + name + "'"
                           : "member '" + d.decl.cls + "::" + name + "'";
    Report(*d.file, "unused-decl", d.decl.line,
           what +
               " has no caller in src/, tools/, bench/, perfbench/ or "
               "examples/ — delete it, or waive it as a test oracle");
  }
}

void Checker::CheckTestOnlyKnobs() {
  // `.name =` (not `==`) anywhere in `toks`: the field is assigned there,
  // by a statement or a designated initializer.
  auto collect_assigned = [](const LexedFile& lexed,
                             std::set<std::string>* out) {
    const std::vector<Token>& toks = lexed.tokens;
    for (size_t i = 1; i + 2 < toks.size(); ++i) {
      if (toks[i].kind == Token::Kind::kIdent && IsPunct(toks[i - 1], ".") &&
          IsPunct(toks[i + 1], "=") && !IsPunct(toks[i + 2], "=")) {
        out->insert(toks[i].text);
      }
    }
  };
  std::set<std::string> assigned_outside;
  for (const SourceFile& file : files_) {
    collect_assigned(file.lexed, &assigned_outside);
  }
  for (const LexedFile& lexed : caller_files_) {
    collect_assigned(lexed, &assigned_outside);
  }
  std::set<std::string> assigned_in_tests;
  for (const LexedFile& lexed : test_files_) {
    collect_assigned(lexed, &assigned_in_tests);
  }

  static const std::set<std::string> kKnobStructs = {
      "SmartPsiConfig", "ServiceOptions", "FsmConfig"};
  for (const SourceFile& file : files_) {
    for (const ClassInfo& c : ClassCollector(file.lexed.tokens).Run()) {
      if (kKnobStructs.count(c.name) == 0) continue;
      for (const FieldDecl& f : c.fields) {
        if (assigned_outside.count(f.name) != 0) continue;
        const char* where = assigned_in_tests.count(f.name) != 0
                                ? "' is set only under tests/"
                                : "' is set by no file, tests included";
        Report(file, "unused-decl", f.line,
               "field '" + c.name + "::" + f.name + where +
                   " — delete the knob, or make it a constant");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driving & reporting

void Checker::RunAll() {
  for (const SourceFile& file : files_) {
    CheckWaiverSyntax(file);
    CheckLayering(file);
    CheckDeterminism(file);
    CheckLockGuards(file);
  }
  CheckFaultSites();
  CheckMetricsPairing();
  CheckUnusedDecls();
  CheckTestOnlyKnobs();
  std::stable_sort(violations_.begin(), violations_.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
}

int Checker::unwaived_count() const {
  int n = 0;
  for (const Violation& v : violations_) {
    if (!v.waived) ++n;
  }
  return n;
}

std::string Checker::TextReport() const {
  std::ostringstream out;
  for (const Violation& v : violations_) {
    out << v.file << ':' << v.line << ": [" << v.rule << "] " << v.message;
    if (v.waived) out << "  (waived: " << v.waive_reason << ")";
    out << '\n';
  }
  const int unwaived = unwaived_count();
  out << "psi_check: " << files_.size() << " files, " << violations_.size()
      << " finding(s), " << unwaived << " unwaived\n";
  return out.str();
}

std::string Checker::JsonReport() const {
  std::ostringstream out;
  out << "{\n  \"files_scanned\": " << files_.size()
      << ",\n  \"unwaived\": " << unwaived_count()
      << ",\n  \"violations\": [";
  for (size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"rule\": \"" << JsonEscape(v.rule) << "\", \"file\": \""
        << JsonEscape(v.file) << "\", \"line\": " << v.line
        << ", \"waived\": " << (v.waived ? "true" : "false")
        << ", \"message\": \"" << JsonEscape(v.message) << "\"";
    if (v.waived) {
      out << ", \"reason\": \"" << JsonEscape(v.waive_reason) << "\"";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

int RunPsiCheck(const std::vector<std::string>& args) {
  fs::path root = ".";
  bool json = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--root") {
      if (i + 1 >= args.size()) {
        std::cerr << "psi_check: --root requires a directory argument\n";
        return 2;
      }
      root = args[++i];
    } else if (a == "--json") {
      json = true;
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: psi_check [--root DIR] [--json]\n\n"
             "Project-contract static analysis (DESIGN.md §15): layering,\n"
             "determinism, lock-guard, fault-site, metrics-pair and\n"
             "unused-decl rules over DIR/src, cross-referenced against\n"
             "DIR/DESIGN.md, DIR/tests and the callers in DIR/{tools,bench,\n"
             "perfbench,examples}. Exit 0 = clean, 1 = unwaived violations,\n"
             "2 = usage or unreadable tree.\n";
      return 0;
    } else {
      std::cerr << "psi_check: unknown argument '" << a
                << "' (try --help)\n";
      return 2;
    }
  }
  Checker checker;
  if (!checker.Load(root)) {
    std::cerr << "psi_check: " << checker.error() << '\n';
    return 2;
  }
  checker.RunAll();
  std::cout << (json ? checker.JsonReport() : checker.TextReport());
  return checker.unwaived_count() == 0 ? 0 : 1;
}

}  // namespace psi::check
