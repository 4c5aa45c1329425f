#include "analysis/mir.h"

#include <sstream>

namespace kivati {

int MirModule::FindGlobal(const std::string& name) const {
  for (std::size_t i = 0; i < globals.size(); ++i) {
    if (globals[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const MirFunction* MirModule::FindFunction(const std::string& name) const {
  for (const auto& f : functions) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

std::optional<VarAccess> SharedAccessOf(const MirOp& op) {
  switch (op.kind) {
    case MirOp::Kind::kLoadGlobal:
      return VarAccess{VarRef::Global(op.global), AccessType::kRead};
    case MirOp::Kind::kStoreGlobal:
      return VarAccess{VarRef::Global(op.global), AccessType::kWrite};
    case MirOp::Kind::kLoadIndex:
      return VarAccess{op.array, AccessType::kRead};
    case MirOp::Kind::kStoreIndex:
      return VarAccess{op.array, AccessType::kWrite};
    case MirOp::Kind::kLoadPtr:
      return VarAccess{VarRef::Local(op.a), AccessType::kRead};
    case MirOp::Kind::kStorePtr:
      return VarAccess{VarRef::Local(op.a), AccessType::kWrite};
    case MirOp::Kind::kLoadLocalMem:
      return VarAccess{VarRef::Local(op.local_mem), AccessType::kRead};
    case MirOp::Kind::kStoreLocalMem:
      return VarAccess{VarRef::Local(op.local_mem), AccessType::kWrite};
    case MirOp::Kind::kLock:
    case MirOp::Kind::kUnlock:
      // The spin-lock exchange both reads and writes the lock word; the
      // write is what matters for pairing (W,W) lock regions.
      return VarAccess{VarRef::Global(op.global), AccessType::kWrite};
    default:
      return std::nullopt;
  }
}

Successors SuccessorsOf(const MirFunction& function, std::size_t index) {
  Successors out;
  // Branch targets may be one-past-the-end (a jump to the function exit);
  // those edges leave the CFG and are dropped.
  const auto add = [&](std::size_t target) {
    if (target < function.ops.size()) {
      out.ops_[out.size_++] = target;
    }
  };
  const MirOp& op = function.ops[index];
  switch (op.kind) {
    case MirOp::Kind::kJmp:
      add(static_cast<std::size_t>(op.target));
      break;
    case MirOp::Kind::kBr:
      add(static_cast<std::size_t>(op.target));
      add(static_cast<std::size_t>(op.target2));
      break;
    case MirOp::Kind::kRet:
    case MirOp::Kind::kExitSys:
      break;
    default:
      add(index + 1);
      break;
  }
  return out;
}

namespace {

std::string VarName(const MirFunction& f, const MirModule& m, const VarRef& ref) {
  if (ref.space == VarRef::Space::kGlobal) {
    return m.globals[static_cast<std::size_t>(ref.index)].name;
  }
  if (ref.space == VarRef::Space::kLocal) {
    return f.locals[static_cast<std::size_t>(ref.index)].name;
  }
  return "?";
}

std::string L(const MirFunction& f, int index) {
  if (index < 0) {
    return "_";
  }
  return f.locals[static_cast<std::size_t>(index)].name;
}

}  // namespace

std::string ToString(const MirFunction& f, const MirModule& m) {
  std::ostringstream out;
  out << f.name << " (" << f.num_params << " params):\n";
  for (std::size_t i = 0; i < f.ops.size(); ++i) {
    const MirOp& op = f.ops[i];
    out << "  " << i << ": ";
    switch (op.kind) {
      case MirOp::Kind::kConst: out << L(f, op.dst) << " = " << op.imm; break;
      case MirOp::Kind::kCopy: out << L(f, op.dst) << " = " << L(f, op.a); break;
      case MirOp::Kind::kBin:
        out << L(f, op.dst) << " = " << L(f, op.a) << " " << ToString(op.bin_op) << " "
            << L(f, op.b);
        break;
      case MirOp::Kind::kLoadGlobal:
        out << L(f, op.dst) << " = " << m.globals[op.global].name;
        break;
      case MirOp::Kind::kStoreGlobal:
        out << m.globals[op.global].name << " = " << L(f, op.a);
        break;
      case MirOp::Kind::kLoadIndex:
        out << L(f, op.dst) << " = " << VarName(f, m, op.array) << "[" << L(f, op.a) << "]";
        break;
      case MirOp::Kind::kStoreIndex:
        out << VarName(f, m, op.array) << "[" << L(f, op.a) << "] = " << L(f, op.b);
        break;
      case MirOp::Kind::kLoadPtr: out << L(f, op.dst) << " = *" << L(f, op.a); break;
      case MirOp::Kind::kStorePtr: out << "*" << L(f, op.a) << " = " << L(f, op.b); break;
      case MirOp::Kind::kLoadLocalMem:
        out << L(f, op.dst) << " = " << L(f, op.local_mem) << " (mem)";
        break;
      case MirOp::Kind::kStoreLocalMem:
        out << L(f, op.local_mem) << " (mem) = " << L(f, op.a);
        break;
      case MirOp::Kind::kAddrGlobal:
        out << L(f, op.dst) << " = &" << m.globals[op.global].name;
        break;
      case MirOp::Kind::kAddrLocal: out << L(f, op.dst) << " = &" << L(f, op.local_mem); break;
      case MirOp::Kind::kAddrIndex:
        out << L(f, op.dst) << " = &" << VarName(f, m, op.array) << "[" << L(f, op.a) << "]";
        break;
      case MirOp::Kind::kCall: {
        out << (op.dst >= 0 ? L(f, op.dst) + " = " : std::string()) << op.callee << "(";
        for (std::size_t j = 0; j < op.args.size(); ++j) {
          out << (j > 0 ? ", " : "") << L(f, op.args[j]);
        }
        out << ")";
        break;
      }
      case MirOp::Kind::kSpawn:
        out << "spawn " << op.callee << "(" << (op.args.empty() ? "" : L(f, op.args[0])) << ")";
        break;
      case MirOp::Kind::kLock: out << "lock(" << m.globals[op.global].name << ")"; break;
      case MirOp::Kind::kUnlock: out << "unlock(" << m.globals[op.global].name << ")"; break;
      case MirOp::Kind::kSleep: out << "sleep(" << L(f, op.a) << ")"; break;
      case MirOp::Kind::kIo: out << "io(" << L(f, op.a) << ")"; break;
      case MirOp::Kind::kYield: out << "yield()"; break;
      case MirOp::Kind::kMark: out << "mark(" << L(f, op.a) << ", " << L(f, op.b) << ")"; break;
      case MirOp::Kind::kNow: out << L(f, op.dst) << " = now()"; break;
      case MirOp::Kind::kExitSys: out << "exit(" << L(f, op.a) << ")"; break;
      case MirOp::Kind::kBr:
        out << "br " << L(f, op.a) << " ? " << op.target << " : " << op.target2;
        break;
      case MirOp::Kind::kJmp: out << "jmp " << op.target; break;
      case MirOp::Kind::kRet:
        out << "ret" << (op.a >= 0 ? " " + L(f, op.a) : std::string());
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace kivati
