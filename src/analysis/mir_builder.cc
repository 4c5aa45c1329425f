#include "analysis/mir_builder.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_set>

namespace kivati {
namespace {

const std::unordered_set<std::string>& Builtins() {
  static const auto* kSet = new std::unordered_set<std::string>{
      "lock", "unlock", "sleep", "io", "yield", "mark", "now", "exit"};
  return *kSet;
}

// Collects scalar locals whose address is taken anywhere in the function so
// they can be made memory-resident before lowering begins, and counts the
// statements and expressions, which size the function's op and local arrays.
class AddressTakenScanner {
 public:
  explicit AddressTakenScanner(std::unordered_set<std::string_view>& out) : out_(out) {}

  std::size_t nodes() const { return nodes_; }

  void Scan(const NodeList<StmtPtr>& body) {
    for (const auto& stmt : body) {
      ScanStmt(*stmt);
    }
  }

 private:
  void ScanStmt(const Stmt& stmt) {
    ++nodes_;
    for (const Expr* e : {stmt.target.get(), stmt.value.get(), stmt.cond.get(),
                          stmt.decl_init.get()}) {
      if (e != nullptr) {
        ScanExpr(*e);
      }
    }
    if (stmt.for_init) {
      ScanStmt(*stmt.for_init);
    }
    if (stmt.for_step) {
      ScanStmt(*stmt.for_step);
    }
    Scan(stmt.body);
    Scan(stmt.else_body);
  }

  void ScanExpr(const Expr& expr) {
    ++nodes_;
    if (expr.kind == Expr::Kind::kAddrOf && !expr.rhs) {
      out_.insert(expr.name);
    }
    for (const Expr* e : {expr.lhs.get(), expr.rhs.get()}) {
      if (e != nullptr) {
        ScanExpr(*e);
      }
    }
    for (const auto& arg : expr.args) {
      ScanExpr(*arg);
    }
  }

  std::unordered_set<std::string_view>& out_;
  std::size_t nodes_ = 0;
};

// Lowers one function per Run call. One object serves a whole module, so its
// scope, loop and address-taken scratch keep their storage from one
// function to the next.
class FunctionLowerer {
 public:
  // `functions` is every function's (name, index), sorted.
  FunctionLowerer(const MirModule& module,
                  std::span<const std::pair<std::string_view, int>> functions)
      : module_(module), functions_(functions) {}

  MirFunction Run(const Function& ast) {
    ast_ = &ast;
    out_ = MirFunction{};
    names_.clear();
    scope_marks_.clear();
    address_taken_.clear();
    out_.name = ast.name;
    out_.returns_value = ast.returns_value;
    out_.returns_pointer = ast.returns_pointer;
    out_.num_params = static_cast<unsigned>(ast.params.size());
    if (out_.num_params > 4) {
      throw LoweringError("function '" + ast.name + "' has more than 4 parameters");
    }

    AddressTakenScanner scanner(address_taken_);
    scanner.Scan(ast.body);
    // A statement or expression lowers to at most one op and one local, as
    // a rule (the apps and corpus bugs average 0.73 ops and 0.55 locals).
    out_.ops.reserve(scanner.nodes() + 1);
    out_.locals.reserve(ast.params.size() + scanner.nodes());

    // The function scope holds the parameters.
    for (const Param& param : ast.params) {
      names_.emplace_back(param.name, static_cast<int>(out_.locals.size()));
      out_.locals.push_back({.name = param.name,
                             .is_pointer = param.is_pointer,
                             .is_param = true,
                             .address_taken = address_taken_.contains(param.name)});
    }

    LowerBlock(ast.body);
    // Guarantee a terminator on the fall-off path.
    if (out_.ops.empty() || (out_.ops.back().kind != MirOp::Kind::kRet &&
                             out_.ops.back().kind != MirOp::Kind::kJmp &&
                             out_.ops.back().kind != MirOp::Kind::kExitSys)) {
      Emit({.kind = MirOp::Kind::kRet, .a = -1});
    }
    return std::move(out_);
  }

 private:
  int Emit(MirOp op) {
    out_.ops.push_back(std::move(op));
    return static_cast<int>(out_.ops.size() - 1);
  }

  int NewTemp(bool is_pointer = false) {
    const int index = static_cast<int>(out_.locals.size());
    out_.locals.push_back({.name = "%t" + std::to_string(index), .is_pointer = is_pointer});
    return index;
  }

  int DeclareLocal(const Stmt& decl) {
    for (std::size_t i = scope_marks_.back(); i < names_.size(); ++i) {
      if (names_[i].first == decl.decl_name) {
        throw LoweringError("redeclaration of '" + decl.decl_name + "' in " + ast_->name);
      }
    }
    const int index = static_cast<int>(out_.locals.size());
    names_.emplace_back(decl.decl_name, index);
    // The address-taken pre-scan is name-based, so shadowed declarations of
    // a taken name are conservatively all memory-resident.
    out_.locals.push_back(
        {.name = decl.decl_name,
         .is_pointer = decl.decl_is_pointer,
         .array_size = decl.decl_array_size,
         .address_taken =
             decl.decl_array_size == 0 && address_taken_.contains(decl.decl_name)});
    return index;
  }

  // The innermost declaration of `name` in scope, or -1.
  int FindLocal(std::string_view name) const {
    for (auto it = names_.rbegin(); it != names_.rend(); ++it) {
      if (it->first == name) {
        return it->second;
      }
    }
    return -1;
  }

  void OpenScope() { scope_marks_.push_back(names_.size()); }
  void CloseScope() {
    names_.resize(scope_marks_.back());
    scope_marks_.pop_back();
  }

  // The first function named `name` (MirModule::FindFunction's rule), or -1.
  int CalleeIndex(std::string_view name) const {
    const auto it = std::lower_bound(functions_.begin(), functions_.end(),
                                     std::pair<std::string_view, int>(name, -1));
    return it != functions_.end() && it->first == name ? it->second : -1;
  }

  // Lowers a user call's arguments, all of them before rejecting too many.
  CallArgs LowerCallArgs(const Expr& call) {
    CallArgs args;
    for (const auto& arg : call.args) {
      const int local = LowerExpr(*arg);
      if (args.size() < CallArgs::kMaxArgs) {
        args.push_back(local);
      }
    }
    if (call.args.size() > CallArgs::kMaxArgs) {
      throw LoweringError("call to '" + call.name + "' has more than 4 arguments");
    }
    return args;
  }

  // Patches the break and continue jumps of the innermost loop.
  void CloseLoop(int continue_target, int break_target) {
    for (std::size_t i = loop_marks_.back(); i < jumps_.size(); ++i) {
      out_.ops[static_cast<std::size_t>(jumps_[i].op)].target =
          jumps_[i].is_break ? break_target : continue_target;
    }
    jumps_.resize(loop_marks_.back());
    loop_marks_.pop_back();
  }

  // Resolves a name to a local or global; throws if unknown.
  VarRef Resolve(const std::string& name, int line) const {
    const int local = FindLocal(name);
    if (local >= 0) {
      return VarRef::Local(local);
    }
    const int global = module_.FindGlobal(name);
    if (global >= 0) {
      return VarRef::Global(global);
    }
    throw LoweringError("unknown variable '" + name + "' at line " + std::to_string(line));
  }

  // --- Expressions: return the local index holding the value ----------------

  int LowerExpr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit: {
        const int temp = NewTemp();
        Emit({.kind = MirOp::Kind::kConst, .dst = temp, .imm = expr.int_value,
              .line = expr.line});
        return temp;
      }
      case Expr::Kind::kVar: {
        const VarRef ref = Resolve(expr.name, expr.line);
        if (ref.space == VarRef::Space::kGlobal) {
          const MirGlobal& g = module_.globals[static_cast<std::size_t>(ref.index)];
          if (g.array_size != 0) {
            throw LoweringError("array '" + expr.name + "' used without index");
          }
          const int temp = NewTemp(g.is_pointer);
          Emit({.kind = MirOp::Kind::kLoadGlobal, .dst = temp, .global = ref.index,
                .line = expr.line});
          return temp;
        }
        const MirLocal& local = out_.locals[static_cast<std::size_t>(ref.index)];
        if (local.array_size != 0) {
          throw LoweringError("array '" + expr.name + "' used without index");
        }
        if (local.address_taken) {
          const int temp = NewTemp(local.is_pointer);
          Emit({.kind = MirOp::Kind::kLoadLocalMem, .dst = temp, .local_mem = ref.index,
                .line = expr.line});
          return temp;
        }
        return ref.index;
      }
      case Expr::Kind::kBinary: {
        const int a = LowerExpr(*expr.lhs);
        const int b = LowerExpr(*expr.rhs);
        const int temp = NewTemp(out_.locals[static_cast<std::size_t>(a)].is_pointer ||
                                 out_.locals[static_cast<std::size_t>(b)].is_pointer);
        Emit({.kind = MirOp::Kind::kBin, .dst = temp, .a = a, .b = b, .bin_op = expr.op,
              .line = expr.line});
        return temp;
      }
      case Expr::Kind::kIndex: {
        const VarRef array = Resolve(expr.name, expr.line);
        const int index = LowerExpr(*expr.rhs);
        const int temp = NewTemp();
        Emit({.kind = MirOp::Kind::kLoadIndex, .dst = temp, .a = index, .array = array,
              .line = expr.line});
        return temp;
      }
      case Expr::Kind::kDeref: {
        const int pointer = LowerExpr(*expr.lhs);
        const int temp = NewTemp();
        Emit({.kind = MirOp::Kind::kLoadPtr, .dst = temp, .a = pointer, .line = expr.line});
        return temp;
      }
      case Expr::Kind::kAddrOf: {
        const VarRef ref = Resolve(expr.name, expr.line);
        const int temp = NewTemp(/*is_pointer=*/true);
        if (expr.rhs) {
          const int index = LowerExpr(*expr.rhs);
          Emit({.kind = MirOp::Kind::kAddrIndex, .dst = temp, .a = index, .array = ref,
                .line = expr.line});
          return temp;
        }
        if (ref.space == VarRef::Space::kGlobal) {
          const MirGlobal& g = module_.globals[static_cast<std::size_t>(ref.index)];
          if (g.array_size != 0) {
            // &arr decays to &arr[0].
            const int zero = NewTemp();
            Emit({.kind = MirOp::Kind::kConst, .dst = zero, .imm = 0, .line = expr.line});
            Emit({.kind = MirOp::Kind::kAddrIndex, .dst = temp, .a = zero, .array = ref,
                  .line = expr.line});
            return temp;
          }
          Emit({.kind = MirOp::Kind::kAddrGlobal, .dst = temp, .global = ref.index,
                .line = expr.line});
          return temp;
        }
        const MirLocal& local = out_.locals[static_cast<std::size_t>(ref.index)];
        if (local.array_size != 0) {
          const int zero = NewTemp();
          Emit({.kind = MirOp::Kind::kConst, .dst = zero, .imm = 0, .line = expr.line});
          Emit({.kind = MirOp::Kind::kAddrIndex, .dst = temp, .a = zero, .array = ref,
                .line = expr.line});
          return temp;
        }
        Emit({.kind = MirOp::Kind::kAddrLocal, .dst = temp, .local_mem = ref.index,
              .line = expr.line});
        return temp;
      }
      case Expr::Kind::kCall: {
        if (expr.name == "now") {
          const int temp = NewTemp();
          Emit({.kind = MirOp::Kind::kNow, .dst = temp, .line = expr.line});
          return temp;
        }
        if (IsBuiltinName(expr.name)) {
          throw LoweringError("builtin '" + expr.name + "' cannot be used in an expression");
        }
        const CallArgs args = LowerCallArgs(expr);
        const int temp = NewTemp();
        Emit({.kind = MirOp::Kind::kCall, .dst = temp, .callee = expr.name,
              .callee_index = CalleeIndex(expr.name), .args = args, .line = expr.line});
        return temp;
      }
    }
    throw LoweringError("unhandled expression kind");
  }

  // --- Statements ------------------------------------------------------------

  void LowerBlock(const NodeList<StmtPtr>& body) {
    OpenScope();
    for (const auto& stmt : body) {
      LowerStmt(*stmt);
    }
    CloseScope();
  }

  void LowerStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kDecl: {
        const int local = DeclareLocal(stmt);
        if (stmt.decl_init) {
          const int value = LowerExpr(*stmt.decl_init);
          StoreToLocal(local, value, stmt.line);
        }
        return;
      }
      case Stmt::Kind::kAssign:
        LowerAssign(stmt);
        return;
      case Stmt::Kind::kIf: {
        const int cond = LowerExpr(*stmt.cond);
        const int branch = Emit({.kind = MirOp::Kind::kBr, .a = cond, .line = stmt.line});
        out_.ops[branch].target = static_cast<int>(out_.ops.size());
        LowerBlock(stmt.body);
        if (stmt.else_body.empty()) {
          out_.ops[branch].target2 = static_cast<int>(out_.ops.size());
          return;
        }
        const int skip_else = Emit({.kind = MirOp::Kind::kJmp, .line = stmt.line});
        out_.ops[branch].target2 = static_cast<int>(out_.ops.size());
        LowerBlock(stmt.else_body);
        out_.ops[skip_else].target = static_cast<int>(out_.ops.size());
        return;
      }
      case Stmt::Kind::kWhile: {
        const int head = static_cast<int>(out_.ops.size());
        const int cond = LowerExpr(*stmt.cond);
        const int branch = Emit({.kind = MirOp::Kind::kBr, .a = cond, .line = stmt.line});
        out_.ops[branch].target = static_cast<int>(out_.ops.size());
        loop_marks_.push_back(jumps_.size());
        LowerBlock(stmt.body);
        Emit({.kind = MirOp::Kind::kJmp, .target = head, .line = stmt.line});
        const int exit = static_cast<int>(out_.ops.size());
        out_.ops[branch].target2 = exit;
        CloseLoop(/*continue_target=*/head, /*break_target=*/exit);
        return;
      }
      case Stmt::Kind::kFor: {
        // The init declaration's scope spans the whole loop.
        OpenScope();
        if (stmt.for_init) {
          LowerStmt(*stmt.for_init);
        }
        const int head = static_cast<int>(out_.ops.size());
        int branch = -1;
        if (stmt.cond) {
          const int cond = LowerExpr(*stmt.cond);
          branch = Emit({.kind = MirOp::Kind::kBr, .a = cond, .line = stmt.line});
          out_.ops[branch].target = static_cast<int>(out_.ops.size());
        }
        loop_marks_.push_back(jumps_.size());
        LowerBlock(stmt.body);
        // `continue` in a for loop runs the step before re-testing.
        const int step_at = static_cast<int>(out_.ops.size());
        if (stmt.for_step) {
          LowerStmt(*stmt.for_step);
        }
        Emit({.kind = MirOp::Kind::kJmp, .target = head, .line = stmt.line});
        const int exit = static_cast<int>(out_.ops.size());
        if (branch >= 0) {
          out_.ops[branch].target2 = exit;
        }
        CloseLoop(/*continue_target=*/step_at, /*break_target=*/exit);
        CloseScope();
        return;
      }
      case Stmt::Kind::kExprStmt:
        LowerCallStmt(*stmt.value);
        return;
      case Stmt::Kind::kReturn: {
        int value = -1;
        if (stmt.value) {
          value = LowerExpr(*stmt.value);
        }
        Emit({.kind = MirOp::Kind::kRet, .a = value, .line = stmt.line});
        return;
      }
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue: {
        if (loop_marks_.empty()) {
          throw LoweringError("'break'/'continue' outside of a loop in " + ast_->name);
        }
        const int jump = Emit({.kind = MirOp::Kind::kJmp, .target = -1, .line = stmt.line});
        jumps_.push_back({jump, stmt.kind == Stmt::Kind::kBreak});
        return;
      }
      case Stmt::Kind::kSpawn: {
        const Expr& call = *stmt.value;
        if (IsBuiltinName(call.name)) {
          throw LoweringError("cannot spawn builtin '" + call.name + "'");
        }
        if (call.args.size() > 1) {
          throw LoweringError("spawned function takes at most one argument");
        }
        CallArgs args;
        if (!call.args.empty()) {
          args.push_back(LowerExpr(*call.args[0]));
        }
        Emit({.kind = MirOp::Kind::kSpawn, .callee = call.name,
              .callee_index = CalleeIndex(call.name), .args = args, .line = stmt.line});
        return;
      }
    }
    throw LoweringError("unhandled statement kind");
  }

  void StoreToLocal(int local, int value, int line) {
    if (out_.locals[static_cast<std::size_t>(local)].address_taken) {
      Emit({.kind = MirOp::Kind::kStoreLocalMem, .a = value, .local_mem = local, .line = line});
    } else {
      Emit({.kind = MirOp::Kind::kCopy, .dst = local, .a = value, .line = line});
    }
  }

  void LowerAssign(const Stmt& stmt) {
    const Expr& target = *stmt.target;
    switch (target.kind) {
      case Expr::Kind::kVar: {
        const VarRef ref = Resolve(target.name, target.line);
        const int value = LowerExpr(*stmt.value);
        if (ref.space == VarRef::Space::kGlobal) {
          Emit({.kind = MirOp::Kind::kStoreGlobal, .a = value, .global = ref.index,
                .line = stmt.line});
        } else {
          StoreToLocal(ref.index, value, stmt.line);
        }
        return;
      }
      case Expr::Kind::kIndex: {
        const VarRef array = Resolve(target.name, target.line);
        const int index = LowerExpr(*target.rhs);
        const int value = LowerExpr(*stmt.value);
        Emit({.kind = MirOp::Kind::kStoreIndex, .a = index, .b = value, .array = array,
              .line = stmt.line});
        return;
      }
      case Expr::Kind::kDeref: {
        const int pointer = LowerExpr(*target.lhs);
        const int value = LowerExpr(*stmt.value);
        Emit({.kind = MirOp::Kind::kStorePtr, .a = pointer, .b = value, .line = stmt.line});
        return;
      }
      default:
        throw LoweringError("invalid assignment target");
    }
  }

  void LowerCallStmt(const Expr& call) {
    const std::string& name = call.name;
    auto one_arg = [&]() {
      if (call.args.size() != 1) {
        throw LoweringError("builtin '" + name + "' takes exactly one argument");
      }
      return LowerExpr(*call.args[0]);
    };
    if (name == "lock" || name == "unlock") {
      if (call.args.size() != 1 || call.args[0]->kind != Expr::Kind::kVar) {
        throw LoweringError("'" + name + "' takes a single global variable argument");
      }
      const int global = module_.FindGlobal(call.args[0]->name);
      if (global < 0) {
        throw LoweringError("'" + name + "' argument must be a global variable");
      }
      Emit({.kind = name == "lock" ? MirOp::Kind::kLock : MirOp::Kind::kUnlock,
            .global = global, .line = call.line});
      return;
    }
    if (name == "sleep") {
      Emit({.kind = MirOp::Kind::kSleep, .a = one_arg(), .line = call.line});
      return;
    }
    if (name == "io") {
      Emit({.kind = MirOp::Kind::kIo, .a = one_arg(), .line = call.line});
      return;
    }
    if (name == "exit") {
      Emit({.kind = MirOp::Kind::kExitSys, .a = one_arg(), .line = call.line});
      return;
    }
    if (name == "yield") {
      if (!call.args.empty()) {
        throw LoweringError("'yield' takes no arguments");
      }
      Emit({.kind = MirOp::Kind::kYield, .line = call.line});
      return;
    }
    if (name == "mark") {
      if (call.args.size() != 2) {
        throw LoweringError("'mark' takes exactly two arguments");
      }
      const int a = LowerExpr(*call.args[0]);
      const int b = LowerExpr(*call.args[1]);
      Emit({.kind = MirOp::Kind::kMark, .a = a, .b = b, .line = call.line});
      return;
    }
    if (name == "now") {
      throw LoweringError("'now()' result must be used");
    }
    // Plain user call for effect.
    const CallArgs args = LowerCallArgs(call);
    Emit({.kind = MirOp::Kind::kCall, .dst = -1, .callee = name,
          .callee_index = CalleeIndex(name), .args = args, .line = call.line});
  }

  const MirModule& module_;
  const std::span<const std::pair<std::string_view, int>> functions_;
  const Function* ast_ = nullptr;
  MirFunction out_;
  // The named locals in scope as (name, local index), innermost last; each
  // block scope begins at a mark. The parameters sit below every mark.
  std::vector<std::pair<std::string_view, int>> names_;
  std::vector<std::size_t> scope_marks_;
  std::unordered_set<std::string_view> address_taken_;

  // The emitted break/continue kJmp ops of the loops being lowered,
  // innermost last, each loop's from a mark; their targets are patched when
  // the loop's bounds are known.
  struct PendingJump {
    int op = -1;
    bool is_break = false;
  };
  std::vector<PendingJump> jumps_;
  std::vector<std::size_t> loop_marks_;
};

}  // namespace

bool IsBuiltinName(const std::string& name) { return Builtins().contains(name); }

MirModule BuildMir(const TranslationUnit& unit) {
  MirModule module;
  module.globals.reserve(unit.globals.size());
  for (const GlobalVar& g : unit.globals) {
    module.globals.push_back({.name = g.name,
                              .is_pointer = g.is_pointer,
                              .is_sync = g.is_sync,
                              .array_size = g.array_size,
                              .init_value = g.init_value});
  }
  // Calls and spawns name their callee; each is resolved to a function index
  // once, here, against this table sorted by (name, index).
  std::vector<std::pair<std::string_view, int>> functions;
  functions.reserve(unit.functions.size());
  for (std::size_t f = 0; f < unit.functions.size(); ++f) {
    functions.emplace_back(unit.functions[f].name, static_cast<int>(f));
  }
  std::sort(functions.begin(), functions.end());
  module.functions.reserve(unit.functions.size());
  FunctionLowerer lowerer(module, functions);
  for (const Function& f : unit.functions) {
    if (IsBuiltinName(f.name)) {
      throw LoweringError("function name '" + f.name + "' collides with a builtin");
    }
    module.functions.push_back(lowerer.Run(f));
  }
  return module;
}

}  // namespace kivati
