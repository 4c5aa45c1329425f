#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/lexer.h"
#include "lang/parser.h"

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
