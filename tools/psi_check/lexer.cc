#include "tools/psi_check/lexer.h"

#include <cctype>
#include <cstddef>

namespace psi::check {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

/// Parses the annotation payload after "psi-check:". Grammar:
///   allow(rule[,rule...]) -- reason
void ParseWaiver(std::string_view body, int line, std::vector<Waiver>* out) {
  Waiver w;
  w.line = line;
  const std::string text = Trim(body);
  auto fail = [&](std::string error) {
    w.malformed = true;
    w.error = std::move(error);
    out->push_back(std::move(w));
  };
  if (text.rfind("allow(", 0) != 0) {
    return fail("expected 'allow(<rule>) -- <reason>' after 'psi-check:'");
  }
  const size_t close = text.find(')');
  if (close == std::string::npos) {
    return fail("unterminated allow(...) rule list");
  }
  std::string_view rules(text);
  rules = rules.substr(6, close - 6);
  size_t pos = 0;
  while (pos <= rules.size()) {
    const size_t comma = rules.find(',', pos);
    const std::string rule = Trim(
        rules.substr(pos, comma == std::string_view::npos ? rules.size() - pos
                                                          : comma - pos));
    if (rule.empty()) return fail("empty rule name in allow(...)");
    w.rules.push_back(rule);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  std::string rest = Trim(std::string_view(text).substr(close + 1));
  if (rest.rfind("--", 0) != 0) {
    return fail("waiver missing ' -- <reason>' justification");
  }
  w.reason = Trim(std::string_view(rest).substr(2));
  if (w.reason.empty()) {
    return fail("waiver reason after '--' must be non-empty");
  }
  out->push_back(std::move(w));
}

/// Scans a comment body (without the // or /* */ delimiters) for psi-check
/// annotations. `line` is the line the comment starts on; embedded
/// newlines inside block comments advance it.
void ScanComment(std::string_view body, int line, std::vector<Waiver>* out) {
  size_t search = 0;
  int current_line = line;
  size_t last_newline_scan = 0;
  while (true) {
    const size_t at = body.find("psi-check:", search);
    if (at == std::string_view::npos) return;
    for (size_t i = last_newline_scan; i < at; ++i) {
      if (body[i] == '\n') ++current_line;
    }
    last_newline_scan = at;
    size_t end = body.find('\n', at);
    if (end == std::string_view::npos) end = body.size();
    ParseWaiver(body.substr(at + 10, end - at - 10), current_line, out);
    search = end;
  }
}

class Lexer {
 public:
  explicit Lexer(const std::string& content) : src_(content) {}

  LexedFile Run() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
        continue;
      }
      if (c == '#' && at_line_start_) {
        LexPreprocessor();
        continue;
      }
      at_line_start_ = false;
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (c == '"') {
        LexString();
        continue;
      }
      if (c == '\'') {
        LexChar();
        continue;
      }
      if (c == 'R' && Peek(1) == '"') {
        LexRawString();
        continue;
      }
      if (IsIdentStart(c)) {
        LexIdent();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        LexNumber();
        continue;
      }
      LexPunct();
    }
    Emit(Token::Kind::kEnd, "");
    return std::move(result_);
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  void Emit(Token::Kind kind, std::string text) {
    result_.tokens.push_back(Token{kind, std::move(text), line_});
  }

  /// Consumes a whole preprocessor directive (including backslash
  /// continuations), recording #include "..." / <...> directives. Macro
  /// bodies are invisible to the rules by design: contract checks fire on
  /// call sites, not definitions.
  void LexPreprocessor() {
    const int start_line = line_;
    size_t p = pos_ + 1;
    while (p < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[p])) != 0 &&
           src_[p] != '\n') {
      ++p;
    }
    size_t word_end = p;
    while (word_end < src_.size() && IsIdentChar(src_[word_end])) ++word_end;
    const std::string_view directive(src_.data() + p, word_end - p);
    if (directive == "include") {
      size_t q = word_end;
      while (q < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[q])) != 0 &&
             src_[q] != '\n') {
        ++q;
      }
      if (q < src_.size() && (src_[q] == '"' || src_[q] == '<')) {
        const char close = src_[q] == '"' ? '"' : '>';
        const size_t end = src_.find(close, q + 1);
        if (end != std::string::npos) {
          result_.includes.push_back(IncludeDirective{
              src_.substr(q + 1, end - q - 1), start_line, close == '>'});
        }
      }
    }
    // Consume to the end of the (possibly continued) directive.
    if (directive == "define") pos_ = word_end;
    while (pos_ < src_.size()) {
      if (src_[pos_] == '\\' && Peek(1) == '\n') {
        pos_ += 2;
        ++line_;
        continue;
      }
      if (src_[pos_] == '\n') break;  // newline handled by Run()
      if (directive == "define" && IsIdentStart(src_[pos_])) {
        size_t end = pos_;
        while (end < src_.size() && IsIdentChar(src_[end])) ++end;
        result_.macro_idents.push_back(src_.substr(pos_, end - pos_));
        pos_ = end;
        continue;
      }
      // Line comments end a directive's interesting part but may hold a
      // waiver; block comments inside directives are rare — skip simply.
      if (src_[pos_] == '/' && Peek(1) == '/') {
        LexLineComment();
        return;
      }
      ++pos_;
    }
  }

  void LexLineComment() {
    size_t end = src_.find('\n', pos_);
    if (end == std::string::npos) end = src_.size();
    ScanComment(std::string_view(src_).substr(pos_ + 2, end - pos_ - 2),
                line_, &result_.waivers);
    pos_ = end;
  }

  void LexBlockComment() {
    const size_t end = src_.find("*/", pos_ + 2);
    const size_t stop = end == std::string::npos ? src_.size() : end;
    const std::string_view body =
        std::string_view(src_).substr(pos_ + 2, stop - pos_ - 2);
    ScanComment(body, line_, &result_.waivers);
    for (char c : body) {
      if (c == '\n') ++line_;
    }
    pos_ = end == std::string::npos ? src_.size() : end + 2;
  }

  void LexString() {
    const int start_line = line_;
    std::string value;
    ++pos_;  // opening quote
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
        value.push_back(src_[pos_]);
        value.push_back(src_[pos_ + 1]);
        pos_ += 2;
        continue;
      }
      if (src_[pos_] == '\n') ++line_;  // unterminated; keep line count sane
      value.push_back(src_[pos_]);
      ++pos_;
    }
    if (pos_ < src_.size()) ++pos_;  // closing quote
    result_.tokens.push_back(Token{Token::Kind::kString, std::move(value),
                                   start_line});
  }

  void LexChar() {
    ++pos_;
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ < src_.size()) ++pos_;
  }

  void LexRawString() {
    // R"delim( ... )delim"
    const size_t open = src_.find('(', pos_ + 2);
    if (open == std::string::npos) {
      pos_ = src_.size();
      return;
    }
    const std::string delim = src_.substr(pos_ + 2, open - pos_ - 2);
    const std::string closer = ")" + delim + "\"";
    const size_t end = src_.find(closer, open + 1);
    const size_t stop = end == std::string::npos ? src_.size() : end;
    const int start_line = line_;
    for (size_t i = pos_; i < stop; ++i) {
      if (src_[i] == '\n') ++line_;
    }
    result_.tokens.push_back(Token{
        Token::Kind::kString, src_.substr(open + 1, stop - open - 1),
        start_line});
    pos_ = end == std::string::npos ? src_.size() : end + closer.size();
  }

  void LexIdent() {
    size_t end = pos_;
    while (end < src_.size() && IsIdentChar(src_[end])) ++end;
    Emit(Token::Kind::kIdent, src_.substr(pos_, end - pos_));
    pos_ = end;
  }

  void LexNumber() {
    size_t end = pos_;
    while (end < src_.size() &&
           (IsIdentChar(src_[end]) || src_[end] == '.' ||
            ((src_[end] == '+' || src_[end] == '-') && end > pos_ &&
             (src_[end - 1] == 'e' || src_[end - 1] == 'E' ||
              src_[end - 1] == 'p' || src_[end - 1] == 'P')))) {
    ++end;
    }
    Emit(Token::Kind::kNumber, src_.substr(pos_, end - pos_));
    pos_ = end;
  }

  void LexPunct() {
    if (src_[pos_] == ':' && Peek(1) == ':') {
      Emit(Token::Kind::kPunct, "::");
      pos_ += 2;
      return;
    }
    Emit(Token::Kind::kPunct, std::string(1, src_[pos_]));
    ++pos_;
  }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
  LexedFile result_;
};

}  // namespace

LexedFile Lex(const std::string& content) { return Lexer(content).Run(); }

}  // namespace psi::check
