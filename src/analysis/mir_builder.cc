#include "analysis/mir_builder.h"

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

  void Scan(const std::vector<StmtPtr>& body) {
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

class FunctionLowerer {
 public:
  FunctionLowerer(const MirModule& module, const Function& ast) : module_(module), ast_(ast) {}

  MirFunction Run() {
    out_.name = ast_.name;
    out_.returns_value = ast_.returns_value;
    out_.returns_pointer = ast_.returns_pointer;
    out_.num_params = static_cast<unsigned>(ast_.params.size());
    if (out_.num_params > 4) {
      throw LoweringError("function '" + ast_.name + "' has more than 4 parameters");
    }

    AddressTakenScanner scanner(address_taken_);
    scanner.Scan(ast_.body);
    // A statement or expression lowers to at most one op and one local, as
    // a rule (the apps and corpus bugs average 0.73 ops and 0.55 locals).
    out_.ops.reserve(scanner.nodes() + 1);
    out_.locals.reserve(ast_.params.size() + scanner.nodes());

    // The function scope holds the parameters.
    for (const Param& param : ast_.params) {
      names_.emplace_back(param.name, static_cast<int>(out_.locals.size()));
      out_.locals.push_back({.name = param.name,
                             .is_pointer = param.is_pointer,
                             .is_param = true,
                             .address_taken = address_taken_.contains(param.name)});
    }

    LowerBlock(ast_.body);
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
        throw LoweringError("redeclaration of '" + decl.decl_name + "' in " + ast_.name);
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
        std::vector<int> args;
        for (const auto& arg : expr.args) {
          args.push_back(LowerExpr(*arg));
        }
        if (args.size() > 4) {
          throw LoweringError("call to '" + expr.name + "' has more than 4 arguments");
        }
        const int temp = NewTemp();
        Emit({.kind = MirOp::Kind::kCall, .dst = temp, .callee = expr.name,
              .args = std::move(args), .line = expr.line});
        return temp;
      }
    }
    throw LoweringError("unhandled expression kind");
  }

  // --- Statements ------------------------------------------------------------

  void LowerBlock(const std::vector<StmtPtr>& body) {
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
        loops_.emplace_back();
        LowerBlock(stmt.body);
        const LoopContext loop = loops_.back();
        loops_.pop_back();
        for (const int jump : loop.continues) {
          out_.ops[jump].target = head;
        }
        Emit({.kind = MirOp::Kind::kJmp, .target = head, .line = stmt.line});
        const int exit = static_cast<int>(out_.ops.size());
        out_.ops[branch].target2 = exit;
        for (const int jump : loop.breaks) {
          out_.ops[jump].target = exit;
        }
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
        loops_.emplace_back();
        LowerBlock(stmt.body);
        const LoopContext loop = loops_.back();
        loops_.pop_back();
        // `continue` in a for loop runs the step before re-testing.
        const int step_at = static_cast<int>(out_.ops.size());
        for (const int jump : loop.continues) {
          out_.ops[jump].target = step_at;
        }
        if (stmt.for_step) {
          LowerStmt(*stmt.for_step);
        }
        Emit({.kind = MirOp::Kind::kJmp, .target = head, .line = stmt.line});
        const int exit = static_cast<int>(out_.ops.size());
        if (branch >= 0) {
          out_.ops[branch].target2 = exit;
        }
        for (const int jump : loop.breaks) {
          out_.ops[jump].target = exit;
        }
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
        if (loops_.empty()) {
          throw LoweringError("'break'/'continue' outside of a loop in " + ast_.name);
        }
        const int jump = Emit({.kind = MirOp::Kind::kJmp, .target = -1, .line = stmt.line});
        if (stmt.kind == Stmt::Kind::kBreak) {
          loops_.back().breaks.push_back(jump);
        } else {
          loops_.back().continues.push_back(jump);
        }
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
        std::vector<int> args;
        if (!call.args.empty()) {
          args.push_back(LowerExpr(*call.args[0]));
        }
        Emit({.kind = MirOp::Kind::kSpawn, .callee = call.name, .args = std::move(args),
              .line = stmt.line});
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
    std::vector<int> args;
    for (const auto& arg : call.args) {
      args.push_back(LowerExpr(*arg));
    }
    if (args.size() > 4) {
      throw LoweringError("call to '" + name + "' has more than 4 arguments");
    }
    Emit({.kind = MirOp::Kind::kCall, .dst = -1, .callee = name, .args = std::move(args),
          .line = call.line});
  }

  const MirModule& module_;
  const Function& ast_;
  MirFunction out_;
  // The named locals in scope as (name, local index), innermost last; each
  // block scope begins at a mark. The parameters sit below every mark.
  std::vector<std::pair<std::string_view, int>> names_;
  std::vector<std::size_t> scope_marks_;
  std::unordered_set<std::string_view> address_taken_;

  // Innermost-loop context for break/continue: indices of emitted kJmp ops
  // whose targets are patched when the loop's bounds are known.
  struct LoopContext {
    std::vector<int> breaks;
    std::vector<int> continues;
  };
  std::vector<LoopContext> loops_;
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
  module.functions.reserve(unit.functions.size());
  for (const Function& f : unit.functions) {
    if (IsBuiltinName(f.name)) {
      throw LoweringError("function name '" + f.name + "' collides with a builtin");
    }
    module.functions.push_back(FunctionLowerer(module, f).Run());
  }
  return module;
}

}  // namespace kivati
