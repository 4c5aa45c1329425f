#include "lang/parser.h"

#include <string>
#include <utility>

namespace kivati {

const char* ToString(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kAnd: return "&";
    case BinOp::kOr: return "|";
    case BinOp::kXor: return "^";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
  }
  return "?";
}

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  TranslationUnit Run() {
    TranslationUnit unit;
    while (Peek().kind != TokenKind::kEof) {
      ParseTopLevel(unit);
    }
    return unit;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t index = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[index];
  }

  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  bool Match(TokenKind kind) {
    if (Check(kind)) {
      Advance();
      return true;
    }
    return false;
  }

  const Token& Expect(TokenKind kind, const char* context) {
    if (!Check(kind)) {
      throw ParseError(std::string("expected ") + ToString(kind) + " " + context + ", got " +
                           ToString(Peek().kind),
                       Peek().line, Peek().column);
    }
    return Advance();
  }

  [[noreturn]] void Fail(const std::string& message) const {
    throw ParseError(message, Peek().line, Peek().column);
  }

  // Deepest nesting the parser accepts. The parser and every pass over the
  // tree recurse once per level, so deeper input fails here with a
  // ParseError instead of overflowing the stack. A level is a statement, an
  // else-if, a unary operand, an operator-precedence descent or one
  // operator of a left-associative chain; a parenthesized expression costs
  // two. The corpus and the apps nest a few dozen levels at most.
  static constexpr int kMaxNesting = 1000;

  // Nesting held until the guard goes out of scope: one level on entry,
  // plus one per Deeper() call.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser), saved_(parser.depth_) { Deeper(); }
    ~Nest() { parser_.depth_ = saved_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

    void Deeper() {
      if (++parser_.depth_ > kMaxNesting) {
        parser_.Fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
      }
    }

   private:
    Parser& parser_;
    const int saved_;
  };

  // --- Top level -------------------------------------------------------------

  void ParseTopLevel(TranslationUnit& unit) {
    const bool is_sync = Match(TokenKind::kKwSync);
    const bool is_void = Check(TokenKind::kKwVoid);
    if (!is_void && !Check(TokenKind::kKwInt)) {
      Fail("expected 'int', 'sync int' or 'void' at top level");
    }
    Advance();  // the type keyword
    bool is_pointer = false;
    while (Match(TokenKind::kStar)) {
      is_pointer = true;
    }
    const Token name = Expect(TokenKind::kIdentifier, "after type");

    if (Check(TokenKind::kLParen)) {
      if (is_sync) {
        Fail("'sync' qualifier is only valid on variables");
      }
      unit.functions.push_back(ParseFunction(name.text, !is_void || is_pointer, is_pointer));
      return;
    }

    if (is_void) {
      Fail("global variables must have type 'int'");
    }
    GlobalVar global;
    global.name = name.text;
    global.is_pointer = is_pointer;
    global.is_sync = is_sync;
    global.line = name.line;
    if (Match(TokenKind::kLBracket)) {
      const Token size = Expect(TokenKind::kIntLiteral, "as array size");
      if (size.int_value <= 0) {
        Fail("array size must be positive");
      }
      global.array_size = size.int_value;
      Expect(TokenKind::kRBracket, "after array size");
    } else if (Match(TokenKind::kAssign)) {
      const Token init = Expect(TokenKind::kIntLiteral, "as global initializer");
      global.init_value = init.int_value;
    }
    Expect(TokenKind::kSemicolon, "after global declaration");
    unit.globals.push_back(std::move(global));
  }

  Function ParseFunction(const std::string& name, bool returns_value, bool returns_pointer) {
    Function function;
    function.name = name;
    function.returns_value = returns_value;
    function.returns_pointer = returns_pointer;
    function.line = Peek().line;
    Expect(TokenKind::kLParen, "after function name");
    if (!Check(TokenKind::kRParen)) {
      do {
        Expect(TokenKind::kKwInt, "as parameter type");
        Param param;
        while (Match(TokenKind::kStar)) {
          param.is_pointer = true;
        }
        param.name = Expect(TokenKind::kIdentifier, "as parameter name").text;
        function.params.push_back(std::move(param));
      } while (Match(TokenKind::kComma));
    }
    Expect(TokenKind::kRParen, "after parameter list");
    Expect(TokenKind::kLBrace, "to open function body");
    function.body = ParseBlock();
    return function;
  }

  // Parses statements until the closing '}' (which is consumed).
  std::vector<StmtPtr> ParseBlock() {
    std::vector<StmtPtr> body;
    while (!Match(TokenKind::kRBrace)) {
      if (Check(TokenKind::kEof)) {
        Fail("unterminated block");
      }
      body.push_back(ParseStatement());
    }
    return body;
  }

  // --- Statements ------------------------------------------------------------

  StmtPtr ParseStatement() {
    const Nest nest(*this);
    switch (Peek().kind) {
      case TokenKind::kKwInt:
        return ParseDecl();
      case TokenKind::kKwIf:
        return ParseIf();
      case TokenKind::kKwWhile:
        return ParseWhile();
      case TokenKind::kKwFor:
        return ParseFor();
      case TokenKind::kKwReturn:
        return ParseReturn();
      case TokenKind::kKwSpawn:
        return ParseSpawn();
      case TokenKind::kKwBreak:
      case TokenKind::kKwContinue: {
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = Peek().kind == TokenKind::kKwBreak ? Stmt::Kind::kBreak
                                                        : Stmt::Kind::kContinue;
        stmt->line = Peek().line;
        Advance();
        Expect(TokenKind::kSemicolon, "after break/continue");
        return stmt;
      }
      default:
        return ParseSimpleStatement(/*expect_semicolon=*/true);
    }
  }

  StmtPtr ParseDecl() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kDecl;
    stmt->line = Peek().line;
    Expect(TokenKind::kKwInt, "in declaration");
    while (Match(TokenKind::kStar)) {
      stmt->decl_is_pointer = true;
    }
    stmt->decl_name = Expect(TokenKind::kIdentifier, "as variable name").text;
    if (Match(TokenKind::kLBracket)) {
      const Token size = Expect(TokenKind::kIntLiteral, "as array size");
      if (size.int_value <= 0) {
        Fail("array size must be positive");
      }
      stmt->decl_array_size = size.int_value;
      Expect(TokenKind::kRBracket, "after array size");
    } else if (Match(TokenKind::kAssign)) {
      stmt->decl_init = ParseExpr();
    }
    Expect(TokenKind::kSemicolon, "after declaration");
    return stmt;
  }

  StmtPtr ParseIf() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kIf;
    stmt->line = Peek().line;
    Expect(TokenKind::kKwIf, "");
    Expect(TokenKind::kLParen, "after 'if'");
    stmt->cond = ParseExpr();
    Expect(TokenKind::kRParen, "after condition");
    Expect(TokenKind::kLBrace, "after 'if (...)' (braces are required)");
    stmt->body = ParseBlock();
    if (Match(TokenKind::kKwElse)) {
      if (Check(TokenKind::kKwIf)) {
        const Nest nest(*this);
        stmt->else_body.push_back(ParseIf());
      } else {
        Expect(TokenKind::kLBrace, "after 'else' (braces are required)");
        stmt->else_body = ParseBlock();
      }
    }
    return stmt;
  }

  StmtPtr ParseWhile() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kWhile;
    stmt->line = Peek().line;
    Expect(TokenKind::kKwWhile, "");
    Expect(TokenKind::kLParen, "after 'while'");
    stmt->cond = ParseExpr();
    Expect(TokenKind::kRParen, "after condition");
    if (Match(TokenKind::kSemicolon)) {
      return stmt;  // empty spin loop: while (cond);
    }
    Expect(TokenKind::kLBrace, "after 'while (...)' (braces are required)");
    stmt->body = ParseBlock();
    return stmt;
  }

  StmtPtr ParseFor() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kFor;
    stmt->line = Peek().line;
    Expect(TokenKind::kKwFor, "");
    Expect(TokenKind::kLParen, "after 'for'");
    if (!Check(TokenKind::kSemicolon)) {
      if (Check(TokenKind::kKwInt)) {
        stmt->for_init = ParseDecl();  // consumes the ';'
      } else {
        stmt->for_init = ParseSimpleStatement(/*expect_semicolon=*/true);
      }
    } else {
      Advance();
    }
    if (!Check(TokenKind::kSemicolon)) {
      stmt->cond = ParseExpr();
    }
    Expect(TokenKind::kSemicolon, "after for condition");
    if (!Check(TokenKind::kRParen)) {
      stmt->for_step = ParseSimpleStatement(/*expect_semicolon=*/false);
    }
    Expect(TokenKind::kRParen, "after for clauses");
    Expect(TokenKind::kLBrace, "after 'for (...)' (braces are required)");
    stmt->body = ParseBlock();
    return stmt;
  }

  StmtPtr ParseReturn() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kReturn;
    stmt->line = Peek().line;
    Expect(TokenKind::kKwReturn, "");
    if (!Check(TokenKind::kSemicolon)) {
      stmt->value = ParseExpr();
    }
    Expect(TokenKind::kSemicolon, "after return");
    return stmt;
  }

  StmtPtr ParseSpawn() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kSpawn;
    stmt->line = Peek().line;
    Expect(TokenKind::kKwSpawn, "");
    ExprPtr call = ParseExpr();
    if (call->kind != Expr::Kind::kCall) {
      Fail("'spawn' must be followed by a function call");
    }
    stmt->value = std::move(call);
    Expect(TokenKind::kSemicolon, "after spawn");
    return stmt;
  }

  // Assignment or expression statement.
  StmtPtr ParseSimpleStatement(bool expect_semicolon) {
    auto stmt = std::make_unique<Stmt>();
    stmt->line = Peek().line;
    ExprPtr first = ParseExpr();
    if (Match(TokenKind::kAssign)) {
      if (first->kind != Expr::Kind::kVar && first->kind != Expr::Kind::kIndex &&
          first->kind != Expr::Kind::kDeref) {
        Fail("assignment target must be a variable, array element or dereference");
      }
      stmt->kind = Stmt::Kind::kAssign;
      stmt->target = std::move(first);
      stmt->value = ParseExpr();
    } else {
      if (first->kind != Expr::Kind::kCall) {
        Fail("expression statement must be a call");
      }
      stmt->kind = Stmt::Kind::kExprStmt;
      stmt->value = std::move(first);
    }
    if (expect_semicolon) {
      Expect(TokenKind::kSemicolon, "after statement");
    }
    return stmt;
  }

  // --- Expressions (precedence climbing) --------------------------------------
  //
  // Levels, loosest first: |  ^  &  ==/!=  </<=/>/>=  +/-  *  unary  primary

  ExprPtr ParseExpr() { return ParseBinary(0); }

  static int PrecedenceOf(TokenKind kind) {
    switch (kind) {
      case TokenKind::kPipe: return 1;
      case TokenKind::kCaret: return 2;
      case TokenKind::kAmp: return 3;
      case TokenKind::kEq:
      case TokenKind::kNe: return 4;
      case TokenKind::kLt:
      case TokenKind::kLe:
      case TokenKind::kGt:
      case TokenKind::kGe: return 5;
      case TokenKind::kPlus:
      case TokenKind::kMinus: return 6;
      case TokenKind::kStar:
      case TokenKind::kSlash:
      case TokenKind::kPercent: return 7;
      default: return -1;
    }
  }

  static BinOp BinOpOf(TokenKind kind) {
    switch (kind) {
      case TokenKind::kPipe: return BinOp::kOr;
      case TokenKind::kCaret: return BinOp::kXor;
      case TokenKind::kAmp: return BinOp::kAnd;
      case TokenKind::kEq: return BinOp::kEq;
      case TokenKind::kNe: return BinOp::kNe;
      case TokenKind::kLt: return BinOp::kLt;
      case TokenKind::kLe: return BinOp::kLe;
      case TokenKind::kGt: return BinOp::kGt;
      case TokenKind::kGe: return BinOp::kGe;
      case TokenKind::kPlus: return BinOp::kAdd;
      case TokenKind::kMinus: return BinOp::kSub;
      case TokenKind::kStar: return BinOp::kMul;
      case TokenKind::kSlash: return BinOp::kDiv;
      case TokenKind::kPercent: return BinOp::kMod;
      default: return BinOp::kAdd;
    }
  }

  ExprPtr ParseBinary(int min_precedence) {
    Nest nest(*this);
    ExprPtr lhs = ParseUnary();
    while (true) {
      const int precedence = PrecedenceOf(Peek().kind);
      if (precedence < 0 || precedence < min_precedence) {
        return lhs;
      }
      nest.Deeper();  // the chain so far becomes the left operand
      const Token op = Advance();
      ExprPtr rhs = ParseBinary(precedence + 1);
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = BinOpOf(op.kind);
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      node->line = op.line;
      lhs = std::move(node);
    }
  }

  ExprPtr ParseUnary() {
    const Nest nest(*this);
    if (Match(TokenKind::kStar)) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kDeref;
      node->line = Peek().line;
      node->lhs = ParseUnary();
      return node;
    }
    if (Match(TokenKind::kAmp)) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kAddrOf;
      node->line = Peek().line;
      node->name = Expect(TokenKind::kIdentifier, "after '&'").text;
      // &arr[i] takes the address of an element.
      if (Match(TokenKind::kLBracket)) {
        node->rhs = ParseExpr();
        Expect(TokenKind::kRBracket, "after index");
      }
      return node;
    }
    if (Match(TokenKind::kMinus)) {
      // Unary minus: 0 - x.
      auto zero = std::make_unique<Expr>();
      zero->kind = Expr::Kind::kIntLit;
      zero->int_value = 0;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = BinOp::kSub;
      node->lhs = std::move(zero);
      node->rhs = ParseUnary();
      node->line = Peek().line;
      return node;
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    if (Check(TokenKind::kIntLiteral)) {
      const Token token = Advance();
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kIntLit;
      node->int_value = token.int_value;
      node->line = token.line;
      return node;
    }
    if (Match(TokenKind::kLParen)) {
      ExprPtr inner = ParseExpr();
      Expect(TokenKind::kRParen, "after parenthesized expression");
      return inner;
    }
    if (Check(TokenKind::kIdentifier)) {
      const Token name = Advance();
      if (Match(TokenKind::kLParen)) {
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kCall;
        node->name = name.text;
        node->line = name.line;
        if (!Check(TokenKind::kRParen)) {
          do {
            node->args.push_back(ParseExpr());
          } while (Match(TokenKind::kComma));
        }
        Expect(TokenKind::kRParen, "after call arguments");
        return node;
      }
      if (Match(TokenKind::kLBracket)) {
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kIndex;
        node->name = name.text;
        node->line = name.line;
        node->rhs = ParseExpr();
        Expect(TokenKind::kRBracket, "after index");
        return node;
      }
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kVar;
      node->name = name.text;
      node->line = name.line;
      return node;
    }
    Fail(std::string("unexpected token ") + ToString(Peek().kind) + " in expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // current nesting (Nest)
};

}  // namespace

TranslationUnit Parse(const std::string& source) { return Parser(Lex(source)).Run(); }

}  // namespace kivati
