#include "lang/lexer.h"

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string_view>

namespace kivati {

ParseError::ParseError(const std::string& message, int line, int column)
    : std::runtime_error(message + " (line " + std::to_string(line) + ", column " +
                         std::to_string(column) + ")"),
      line_(line),
      column_(column) {}

const char* ToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "<eof>";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kKwInt: return "'int'";
    case TokenKind::kKwVoid: return "'void'";
    case TokenKind::kKwSync: return "'sync'";
    case TokenKind::kKwIf: return "'if'";
    case TokenKind::kKwElse: return "'else'";
    case TokenKind::kKwWhile: return "'while'";
    case TokenKind::kKwFor: return "'for'";
    case TokenKind::kKwReturn: return "'return'";
    case TokenKind::kKwSpawn: return "'spawn'";
    case TokenKind::kKwBreak: return "'break'";
    case TokenKind::kKwContinue: return "'continue'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kComma: return "','";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kCaret: return "'^'";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
  }
  return "?";
}

namespace {

// ASCII classes, independent of the C locale. The whitespace set is the
// "C" locale's isspace: space, \t, \n, \v, \f and \r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsLetter(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool IsIdentStart(char c) { return IsLetter(c) || c == '_'; }
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }
// The value of `c` as a decimal or hex digit, or -1.
int DigitValue(char c, bool hex) {
  if (IsDigit(c)) {
    return c - '0';
  }
  const char lower = static_cast<char>(c | 0x20);
  return hex && lower >= 'a' && lower <= 'f' ? lower - 'a' + 10 : -1;
}

TokenKind KeywordOrIdentifier(std::string_view text) {
  switch (text.size()) {
    case 2:
      if (text == "if") return TokenKind::kKwIf;
      break;
    case 3:
      if (text == "int") return TokenKind::kKwInt;
      if (text == "for") return TokenKind::kKwFor;
      break;
    case 4:
      if (text == "void") return TokenKind::kKwVoid;
      if (text == "sync") return TokenKind::kKwSync;
      if (text == "else") return TokenKind::kKwElse;
      break;
    case 5:
      if (text == "while") return TokenKind::kKwWhile;
      if (text == "spawn") return TokenKind::kKwSpawn;
      if (text == "break") return TokenKind::kKwBreak;
      break;
    case 6:
      if (text == "return") return TokenKind::kKwReturn;
      break;
    case 8:
      if (text == "continue") return TokenKind::kKwContinue;
      break;
    default:
      break;
  }
  return TokenKind::kIdentifier;
}

// One pass over the bytes. A token's column is computed from its offset and
// the offset of the line it is on. Identifiers, literals and the end token
// carry the column just past their last byte; operators carry the column of
// their first byte (parser error positions follow this rule).
class LexerImpl {
 public:
  explicit LexerImpl(std::string_view source) : src_(source) {}

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    // The apps and corpus bugs average 4.8 bytes per token and none has
    // fewer than 4.1, so this reservation is never regrown for them.
    tokens.reserve(src_.size() / 4 + 1);
    while (true) {
      SkipSpaceAndComments();
      if (pos_ == src_.size()) {
        Push(tokens, TokenKind::kEof, pos_, pos_);
        return tokens;
      }
      const char c = src_[pos_];
      if (IsIdentStart(c)) {
        const std::size_t start = pos_;
        while (++pos_ < src_.size() && IsIdentChar(src_[pos_])) {
        }
        Push(tokens, KeywordOrIdentifier(src_.substr(start, pos_ - start)), start, pos_);
      } else if (IsDigit(c)) {
        Number(tokens);
      } else {
        Operator(tokens);
      }
    }
  }

 private:
  int Column(std::size_t pos) const { return static_cast<int>(pos - line_start_) + 1; }

  void NewLineAt(std::size_t pos) {
    ++line_;
    line_start_ = pos + 1;
  }

  void SkipSpaceAndComments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (IsSpace(c)) {
        if (c == '\n') {
          NewLineAt(pos_);
        }
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        // The newline that ends the comment is left for the loop.
        const std::size_t newline = src_.find('\n', pos_ + 2);
        pos_ = newline == std::string_view::npos ? src_.size() : newline;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (true) {
          if (pos_ == src_.size()) {
            throw ParseError("unterminated block comment", line_, Column(pos_));
          }
          if (src_[pos_] == '*' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
            pos_ += 2;
            break;
          }
          if (src_[pos_] == '\n') {
            NewLineAt(pos_);
          }
          ++pos_;
        }
      } else {
        return;
      }
    }
  }

  void Push(std::vector<Token>& tokens, TokenKind kind, std::size_t start, std::size_t end,
            std::int64_t int_value = 0) {
    Token& token = tokens.emplace_back();
    token.kind = kind;
    token.text.assign(src_.data() + start, end - start);
    token.int_value = int_value;
    token.line = line_;
    token.column = Column(end);
  }

  // Decimal, or hex after 0x/0X. The value must fit in int64_t; a literal
  // that does not, or a 0x with no hex digit after it, is an error at the
  // literal's first column.
  void Number(std::vector<Token>& tokens) {
    const std::size_t start = pos_;
    const bool hex =
        src_[pos_] == '0' && pos_ + 1 < src_.size() && (src_[pos_ + 1] | 0x20) == 'x';
    if (hex) {
      pos_ += 2;
    }
    const std::size_t digits = pos_;
    const std::uint64_t base = hex ? 16 : 10;
    constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
    std::uint64_t value = 0;
    bool overflow = false;
    for (; pos_ < src_.size(); ++pos_) {
      const int digit = DigitValue(src_[pos_], hex);
      if (digit < 0) {
        break;
      }
      const auto d = static_cast<std::uint64_t>(digit);
      overflow |= value > (kMax - d) / base;
      value = value * base + d;
    }
    const std::string_view text = src_.substr(start, pos_ - start);
    if (pos_ == digits) {
      throw ParseError("malformed integer literal '" + std::string(text) + "'", line_,
                       Column(start));
    }
    if (overflow) {
      throw ParseError("integer literal " + std::string(text) + " does not fit in 64 bits",
                       line_, Column(start));
    }
    Push(tokens, TokenKind::kIntLiteral, start, pos_, static_cast<std::int64_t>(value));
  }

  void Operator(std::vector<Token>& tokens) {
    const std::size_t start = pos_;
    const char c = src_[pos_++];
    // The kind with a following '=' consumed, or `without`.
    const auto two = [&](TokenKind with, TokenKind without) {
      if (pos_ < src_.size() && src_[pos_] == '=') {
        ++pos_;
        return with;
      }
      return without;
    };
    TokenKind kind;
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case ';': kind = TokenKind::kSemicolon; break;
      case ',': kind = TokenKind::kComma; break;
      case '+': kind = TokenKind::kPlus; break;
      case '-': kind = TokenKind::kMinus; break;
      case '*': kind = TokenKind::kStar; break;
      case '/': kind = TokenKind::kSlash; break;
      case '%': kind = TokenKind::kPercent; break;
      case '&': kind = TokenKind::kAmp; break;
      case '|': kind = TokenKind::kPipe; break;
      case '^': kind = TokenKind::kCaret; break;
      case '=': kind = two(TokenKind::kEq, TokenKind::kAssign); break;
      case '<': kind = two(TokenKind::kLe, TokenKind::kLt); break;
      case '>': kind = two(TokenKind::kGe, TokenKind::kGt); break;
      case '!':
        if (pos_ == src_.size() || src_[pos_] != '=') {
          throw ParseError("unexpected character '!'", line_, Column(start));
        }
        ++pos_;
        kind = TokenKind::kNe;
        break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte >= 0x20 && byte < 0x7f) {
          throw ParseError(std::string("unexpected character '") + c + "'", line_,
                           Column(start));
        }
        char hex[8];
        std::snprintf(hex, sizeof(hex), "0x%02X", byte);
        throw ParseError(std::string("unexpected byte ") + hex, line_, Column(start));
      }
    }
    Token& token = tokens.emplace_back();
    token.kind = kind;
    token.line = line_;
    token.column = Column(start);
  }

  const std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;  // offset of the first byte of line `line_`
};

}  // namespace

std::vector<Token> Lex(const std::string& source) { return LexerImpl(source).Run(); }

}  // namespace kivati
