#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/bugs.h"
#include "apps/workloads.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "tests/program_generator.h"

namespace kivati {
namespace {

TEST(LexerTest, TokenizesBasics) {
  const auto tokens = Lex("int x = 42;");
  ASSERT_EQ(tokens.size(), 6u);  // int x = 42 ; <eof>
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_EQ(tokens[4].kind, TokenKind::kSemicolon);
  EXPECT_EQ(tokens[5].kind, TokenKind::kEof);
}

TEST(LexerTest, HexLiterals) {
  const auto tokens = Lex("0x1F");
  EXPECT_EQ(tokens[0].int_value, 31);
}

TEST(LexerTest, CommentsSkipped) {
  const auto tokens = Lex("// line\nint /* block\nmore */ x;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwInt);
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(LexerTest, TwoCharOperators) {
  const auto tokens = Lex("== != <= >= < > =");
  EXPECT_EQ(tokens[0].kind, TokenKind::kEq);
  EXPECT_EQ(tokens[1].kind, TokenKind::kNe);
  EXPECT_EQ(tokens[2].kind, TokenKind::kLe);
  EXPECT_EQ(tokens[3].kind, TokenKind::kGe);
  EXPECT_EQ(tokens[4].kind, TokenKind::kLt);
  EXPECT_EQ(tokens[5].kind, TokenKind::kGt);
  EXPECT_EQ(tokens[6].kind, TokenKind::kAssign);
}

TEST(LexerTest, ErrorsCarryLocation) {
  try {
    Lex("int x;\n  $");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

// The ParseError `source` raises, as "line:column: message".
std::string LexErrorOf(const std::string& source) {
  try {
    Lex(source);
  } catch (const ParseError& e) {
    return std::to_string(e.line()) + ":" + std::to_string(e.column()) + ": " + e.what();
  }
  return "no error";
}

TEST(LexerTest, NulByteIsAnErrorNotTheEnd) {
  using namespace std::string_literals;
  // Text after a NUL used to be dropped: the file lexed as its prefix.
  EXPECT_EQ(LexErrorOf("int g;\n  \0 this is not mini-C"s),
            "2:3: unexpected byte 0x00 (line 2, column 3)");
  EXPECT_EQ(LexErrorOf("int g;\x01"), "1:7: unexpected byte 0x01 (line 1, column 7)");
  EXPECT_EQ(LexErrorOf("g = \xC3\xA9;"), "1:5: unexpected byte 0xC3 (line 1, column 5)");
  // Inside a comment a NUL is just another byte.
  const auto tokens = Lex("int /* \0 */ g; // \0\n"s);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].text, "g");
}

TEST(LexerTest, HexPrefixWithoutDigitsIsAnError) {
  // `0x` used to lex as the literal 0.
  EXPECT_EQ(LexErrorOf("g = 0x;"),
            "1:5: malformed integer literal '0x' (line 1, column 5)");
  EXPECT_EQ(LexErrorOf("int g;\n g = 0Xz;"),
            "2:6: malformed integer literal '0X' (line 2, column 6)");
}

TEST(LexerTest, LiteralsBeyondInt64AreErrors) {
  // These used to escape as std::out_of_range from std::stoll ("stoll"),
  // with no position.
  EXPECT_EQ(LexErrorOf("99999999999999999999999"),
            "1:1: integer literal 99999999999999999999999 does not fit in 64 bits "
            "(line 1, column 1)");
  EXPECT_EQ(LexErrorOf("g = 0xFFFFFFFFFFFFFFFF;"),
            "1:5: integer literal 0xFFFFFFFFFFFFFFFF does not fit in 64 bits "
            "(line 1, column 5)");
  EXPECT_NE(LexErrorOf("9223372036854775808").find("does not fit"), std::string::npos);
  EXPECT_NE(LexErrorOf("0x8000000000000000").find("does not fit"), std::string::npos);
  // The largest int64_t still lexes, in either base, leading zeros and all.
  const auto tokens = Lex("9223372036854775807 0x7fffffffffffffff 0x00000000000000000001 007");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].int_value, INT64_MAX);
  EXPECT_EQ(tokens[1].int_value, INT64_MAX);
  EXPECT_EQ(tokens[2].int_value, 1);
  EXPECT_EQ(tokens[3].int_value, 7);
}

// --- The lexer against the reference lexer -----------------------------------

// The character-at-a-time lexer the byte-level one replaced, kept as the
// oracle: locale classification, per-character text building, a keyword
// hash map and std::stoll. Its known defects stay in it (a NUL byte ends
// the source, `0x` reads as 0, and an out-of-range literal throws
// std::out_of_range), so the comparisons below avoid those inputs.
class ReferenceLexer {
 public:
  explicit ReferenceLexer(const std::string& source) : source_(source) {}

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      Token token = Next();
      const bool eof = token.kind == TokenKind::kEof;
      tokens.push_back(std::move(token));
      if (eof) {
        break;
      }
    }
    return tokens;
  }

 private:
  static const std::unordered_map<std::string, TokenKind>& Keywords() {
    static const auto* kMap = new std::unordered_map<std::string, TokenKind>{
        {"int", TokenKind::kKwInt},       {"void", TokenKind::kKwVoid},
        {"sync", TokenKind::kKwSync},     {"if", TokenKind::kKwIf},
        {"else", TokenKind::kKwElse},     {"while", TokenKind::kKwWhile},
        {"for", TokenKind::kKwFor},       {"return", TokenKind::kKwReturn},
        {"spawn", TokenKind::kKwSpawn},   {"break", TokenKind::kKwBreak},
        {"continue", TokenKind::kKwContinue},
    };
    return *kMap;
  }

  char Peek(std::size_t ahead = 0) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }

  char Advance() {
    const char c = Peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    while (true) {
      const char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        while (Peek() != '\n' && Peek() != '\0') {
          Advance();
        }
      } else if (c == '/' && Peek(1) == '*') {
        Advance();
        Advance();
        while (!(Peek() == '*' && Peek(1) == '/')) {
          if (Peek() == '\0') {
            throw ParseError("unterminated block comment", line_, column_);
          }
          Advance();
        }
        Advance();
        Advance();
      } else {
        return;
      }
    }
  }

  Token Make(TokenKind kind, std::string text) {
    Token token;
    token.kind = kind;
    token.text = std::move(text);
    token.line = line_;
    token.column = column_;
    return token;
  }

  Token Next() {
    const char c = Peek();
    if (c == '\0') {
      return Make(TokenKind::kEof, "");
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      return Identifier();
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      return Number();
    }
    return Operator();
  }

  Token Identifier() {
    std::string text;
    while (std::isalnum(static_cast<unsigned char>(Peek())) != 0 || Peek() == '_') {
      text.push_back(Advance());
    }
    const auto it = Keywords().find(text);
    if (it != Keywords().end()) {
      return Make(it->second, std::move(text));
    }
    return Make(TokenKind::kIdentifier, std::move(text));
  }

  Token Number() {
    std::string text;
    int base = 10;
    if (Peek() == '0' && (Peek(1) == 'x' || Peek(1) == 'X')) {
      text.push_back(Advance());
      text.push_back(Advance());
      base = 16;
      while (std::isxdigit(static_cast<unsigned char>(Peek())) != 0) {
        text.push_back(Advance());
      }
    } else {
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        text.push_back(Advance());
      }
    }
    Token token = Make(TokenKind::kIntLiteral, text);
    token.int_value = std::stoll(text, nullptr, base);
    return token;
  }

  Token Operator() {
    const int line = line_;
    const int column = column_;
    const char c = Advance();
    auto two = [&](char second, TokenKind with, TokenKind without) {
      if (Peek() == second) {
        Advance();
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
      case '=': kind = two('=', TokenKind::kEq, TokenKind::kAssign); break;
      case '!':
        if (Peek() == '=') {
          Advance();
          kind = TokenKind::kNe;
        } else {
          throw ParseError("unexpected character '!'", line, column);
        }
        break;
      case '<': kind = two('=', TokenKind::kLe, TokenKind::kLt); break;
      case '>': kind = two('=', TokenKind::kGe, TokenKind::kGt); break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", line, column);
    }
    Token token;
    token.kind = kind;
    token.line = line;
    token.column = column;
    return token;
  }

  const std::string& source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

// Lexes `source` with both lexers: equal tokens, or a ParseError at the
// same line and column from both.
void ExpectSameAsReference(const std::string& source, const std::string& name) {
  SCOPED_TRACE(name);
  std::vector<Token> expected;
  std::string expected_error;
  try {
    expected = ReferenceLexer(source).Run();
  } catch (const ParseError& e) {
    expected_error = std::to_string(e.line()) + ":" + std::to_string(e.column());
  }
  std::vector<Token> actual;
  std::string actual_error;
  try {
    actual = Lex(source);
  } catch (const ParseError& e) {
    actual_error = std::to_string(e.line()) + ":" + std::to_string(e.column());
  }
  ASSERT_EQ(actual_error, expected_error);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("token " + std::to_string(i));
    EXPECT_EQ(actual[i].kind, expected[i].kind);
    EXPECT_EQ(actual[i].text, expected[i].text);
    EXPECT_EQ(actual[i].int_value, expected[i].int_value);
    EXPECT_EQ(actual[i].line, expected[i].line);
    EXPECT_EQ(actual[i].column, expected[i].column);
  }
}

// Every token kind, keywords next to identifiers that extend them, both
// comment forms, every whitespace byte and literals in both bases up to
// INT64_MAX: none of the shipped sources uses else, break, continue, ^, %,
// |, <= or >=.
constexpr char kTokenTour[] =
    "sync int lock_1; int _x9 = 0x7FFFFFFFFFFFFFFF; int *p; int a[0X10];\n"
    "void f(int in, int iff) {\r\n\tif (in >= 9223372036854775807) { return; }\n"
    "  else_ = elsewhere; // int void\n  while (iff <= 007) { break; continue; }\v\f\n"
    "  for (int i = 0; i != 3; i = i + 1) { spawn g(&a[i]); *p = -i * 2 / 3 % 4; }\n"
    "  if (in == 1) { a[1] = in & 1 | 2 ^ 3; } else { in = (in < 1) > 0; }\n"
    "  /* block\n comment */ returned = continue_ + breaks + forx + int2 + voidy;\n}\n";

// The mini-C sources the lexers are compared on: the five apps, the fifteen
// corpus bugs, the analyze examples, twenty generated programs and the
// token tour.
std::vector<std::pair<std::string, std::string>> ReferenceSources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const apps::App& app : apps::AllPerformanceApps()) {
    sources.emplace_back(app.workload.name, app.source);
  }
  for (const auto* corpus : {&apps::BugCorpus(), &apps::MultiVarBugCorpus()}) {
    for (const apps::BugInfo& bug : *corpus) {
      const apps::App app = apps::MakeBugApp(bug);
      sources.emplace_back(app.workload.name, app.source);
    }
  }
  for (const char* example : {"mixed.kv", "window.kv"}) {
    std::ifstream in(std::string(KIVATI_EXAMPLES_DIR) + "/analyze/" + example);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_FALSE(text.str().empty()) << example;
    sources.emplace_back(example, text.str());
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sources.emplace_back("generated " + std::to_string(seed),
                         testing::ProgramGenerator(seed).Generate());
  }
  sources.emplace_back("token tour", kTokenTour);
  return sources;
}

TEST(LexerTest, MatchesReferenceOnEverySource) {
  const auto sources = ReferenceSources();
  ASSERT_EQ(sources.size(), 5u + 15u + 2u + 20u + 1u);
  for (const auto& [name, source] : sources) {
    ExpectSameAsReference(source, name);
  }
}

TEST(LexerTest, MatchesReferenceErrorPositions) {
  // Every malformed shape but the three defects the reference keeps: bytes
  // no token starts with (printable or not), a lone '!', an unterminated
  // block comment, and truncation, each spliced in at a spread of offsets
  // of every source above.
  const std::vector<std::string> splices = {"@",  "$", "#",    "`",  "!",    "!x",
                                            "/*", "?", "\x01", "\x7f", "\xff", "\t\r\v\f"};
  for (const auto& [name, source] : ReferenceSources()) {
    const std::size_t stride = source.size() / 7 + 1;
    for (std::size_t at = 0; at <= source.size(); at += stride) {
      if (at >= 2 && source[at - 2] == '0' && (source[at - 1] | 0x20) == 'x') {
        continue;  // a cut or splice here leaves a digitless 0x
      }
      for (const std::string& splice : splices) {
        ExpectSameAsReference(source.substr(0, at) + splice + source.substr(at),
                              name + " + splice at " + std::to_string(at));
      }
      ExpectSameAsReference(source.substr(0, at), name + " cut at " + std::to_string(at));
    }
  }
  ExpectSameAsReference("int g; /* open\n\n  ", "unterminated comment");
  ExpectSameAsReference("int g; //", "line comment at end");
  ExpectSameAsReference("int g; /*/ g", "comment opener is not a closer");
}

TEST(ParserTest, GlobalDeclarations) {
  const auto unit = Parse("int a; int b = 5; sync int l; int arr[8]; int *p;");
  ASSERT_EQ(unit.globals.size(), 5u);
  EXPECT_EQ(unit.globals[0].name, "a");
  EXPECT_EQ(unit.globals[1].init_value, 5);
  EXPECT_TRUE(unit.globals[2].is_sync);
  EXPECT_EQ(unit.globals[3].array_size, 8);
  EXPECT_TRUE(unit.globals[4].is_pointer);
}

TEST(ParserTest, FunctionWithParams) {
  const auto unit = Parse("void f(int a, int *p) { }  int g() { return 1; }");
  ASSERT_EQ(unit.functions.size(), 2u);
  EXPECT_EQ(unit.functions[0].name, "f");
  EXPECT_FALSE(unit.functions[0].returns_value);
  ASSERT_EQ(unit.functions[0].params.size(), 2u);
  EXPECT_TRUE(unit.functions[0].params[1].is_pointer);
  EXPECT_TRUE(unit.functions[1].returns_value);
}

TEST(ParserTest, Precedence) {
  // a + b * c must parse as a + (b * c).
  const auto unit = Parse("int a; int b; int c; int r; void f() { r = a + b * c; }");
  const Stmt& assign = *unit.functions[0].body[0];
  ASSERT_EQ(assign.kind, Stmt::Kind::kAssign);
  const Expr& sum = *assign.value;
  ASSERT_EQ(sum.kind, Expr::Kind::kBinary);
  EXPECT_EQ(sum.op, BinOp::kAdd);
  EXPECT_EQ(sum.rhs->kind, Expr::Kind::kBinary);
  EXPECT_EQ(sum.rhs->op, BinOp::kMul);
}

TEST(ParserTest, ComparisonBindsLooserThanArithmetic) {
  const auto unit = Parse("int a; void f() { if (a + 1 == 2) { } }");
  const Stmt& if_stmt = *unit.functions[0].body[0];
  EXPECT_EQ(if_stmt.cond->op, BinOp::kEq);
}

TEST(ParserTest, ControlFlowForms) {
  const auto unit = Parse(R"(
    int g;
    void f() {
      if (g == 1) { g = 2; } else if (g == 3) { g = 4; } else { g = 5; }
      while (g < 10) { g = g + 1; }
      for (int i = 0; i < 4; i = i + 1) { g = g + i; }
      while (g == 99);
    }
  )");
  ASSERT_EQ(unit.functions[0].body.size(), 4u);
  EXPECT_EQ(unit.functions[0].body[0]->kind, Stmt::Kind::kIf);
  EXPECT_EQ(unit.functions[0].body[1]->kind, Stmt::Kind::kWhile);
  EXPECT_EQ(unit.functions[0].body[2]->kind, Stmt::Kind::kFor);
  EXPECT_TRUE(unit.functions[0].body[3]->body.empty());  // empty spin loop
}

TEST(ParserTest, PointerOperations) {
  const auto unit = Parse(R"(
    int g; int *p;
    void f() {
      p = &g;
      *p = 7;
      g = *p + 1;
    }
  )");
  const auto& body = unit.functions[0].body;
  EXPECT_EQ(body[0]->value->kind, Expr::Kind::kAddrOf);
  EXPECT_EQ(body[1]->target->kind, Expr::Kind::kDeref);
  EXPECT_EQ(body[2]->value->lhs->kind, Expr::Kind::kDeref);
}

TEST(ParserTest, SpawnAndCalls) {
  const auto unit = Parse(R"(
    void worker(int id) { }
    void main() {
      spawn worker(1);
      worker(2);
    }
  )");
  const auto& body = unit.functions[1].body;
  EXPECT_EQ(body[0]->kind, Stmt::Kind::kSpawn);
  EXPECT_EQ(body[1]->kind, Stmt::Kind::kExprStmt);
}

TEST(ParserTest, ArrayIndexing) {
  const auto unit = Parse("int a[4]; void f() { a[1] = a[0] + 1; }");
  const Stmt& assign = *unit.functions[0].body[0];
  EXPECT_EQ(assign.target->kind, Expr::Kind::kIndex);
  EXPECT_EQ(assign.value->lhs->kind, Expr::Kind::kIndex);
}

TEST(ParserTest, RejectsAssignToRValue) {
  EXPECT_THROW(Parse("void f() { 1 = 2; }"), ParseError);
}

// Every recursive shape the parser accepts, nested `n` deep.
std::vector<std::string> NestedSources(int n) {
  const auto repeat = [](const std::string& s, int times) {
    std::string out;
    for (int i = 0; i < times; ++i) {
      out += s;
    }
    return out;
  };
  const std::string head = "int g; void f(int x) { ";
  return {
      head + "g = " + repeat("(", n) + "1" + repeat(")", n) + "; }",
      head + "g = 1" + repeat(" + 1", n) + "; }",
      head + "g = " + repeat("-", n) + "1; }",
      head + "f(" + repeat("g[", n) + "0" + repeat("]", n) + "); }",
      head + repeat("if (x) { ", n) + "g = 1;" + repeat(" }", n) + " }",
      head + "if (x) { g = 1; }" + repeat(" else if (x) { g = 1; }", n) + " }",
  };
}

TEST(ParserTest, RejectsExcessiveNesting) {
  // Deep enough to overflow the stack without the cap; a clean error instead.
  for (const std::string& source : NestedSources(100'000)) {
    EXPECT_THROW(Parse(source), ParseError) << source.substr(0, 40);
  }
  // Nesting far beyond real programs still parses.
  for (const std::string& source : NestedSources(100)) {
    EXPECT_NO_THROW(Parse(source)) << source.substr(0, 40);
  }
}

TEST(ParserTest, RejectsMissingBraces) {
  EXPECT_THROW(Parse("int g; void f() { if (g) g = 1; }"), ParseError);
}

TEST(ParserTest, RejectsSyncOnFunction) {
  EXPECT_THROW(Parse("sync void f() { }"), ParseError);
}

TEST(ParserTest, DivModShareMulPrecedence) {
  const auto unit = Parse("int a; int r; void f() { r = a + a / 2 % 3; }");
  const Expr& sum = *unit.functions[0].body[0]->value;
  ASSERT_EQ(sum.kind, Expr::Kind::kBinary);
  EXPECT_EQ(sum.op, BinOp::kAdd);
  // Left-associative same-precedence chain: (a / 2) % 3.
  ASSERT_EQ(sum.rhs->kind, Expr::Kind::kBinary);
  EXPECT_EQ(sum.rhs->op, BinOp::kMod);
  EXPECT_EQ(sum.rhs->lhs->op, BinOp::kDiv);
}

TEST(ParserTest, BreakAndContinueParse) {
  const auto unit = Parse(R"(
    void f() {
      while (1) {
        if (0) { break; }
        continue;
      }
    }
  )");
  const auto& loop = unit.functions[0].body[0];
  EXPECT_EQ(loop->body[0]->else_body.size(), 0u);
  EXPECT_EQ(loop->body[1]->kind, Stmt::Kind::kContinue);
}

TEST(ParserTest, SlashStillLexesComments) {
  const auto unit = Parse("int a; void f() { a = 6 / 2; /* mid */ a = a / 3; // end\n }");
  EXPECT_EQ(unit.functions[0].body.size(), 2u);
}

}  // namespace
}  // namespace kivati
