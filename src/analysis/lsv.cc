#include "analysis/lsv.h"

namespace kivati {
namespace {

// `call_shared(op)`: whether the result of call op `op` seeds the LSV.
template <typename CallShared>
LsvResult ComputeLsvImpl(const MirFunction& function, const CallShared& call_shared) {
  LsvResult result;
  result.local_in_lsv.assign(function.locals.size(), false);
  auto mark = [&result](int local) -> bool {
    if (local < 0 || result.local_in_lsv[static_cast<std::size_t>(local)]) {
      return false;
    }
    result.local_in_lsv[static_cast<std::size_t>(local)] = true;
    return true;
  };

  // Seeds: pointer parameters (arguments passed by reference), memory-
  // resident locals whose address is taken, and local arrays whose elements'
  // addresses escape.
  for (std::size_t i = 0; i < function.locals.size(); ++i) {
    const MirLocal& local = function.locals[i];
    if ((local.is_param && local.is_pointer) || local.address_taken) {
      result.local_in_lsv[i] = true;
    }
  }
  for (const MirOp& op : function.ops) {
    if (op.kind == MirOp::Kind::kAddrIndex && op.array.space == VarRef::Space::kLocal) {
      mark(op.array.index);
    }
    if (op.kind == MirOp::Kind::kAddrLocal) {
      mark(op.local_mem);
    }
  }

  // Closure: anything data-flow dependent on an LSV member joins the LSV.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const MirOp& op : function.ops) {
      const auto shared_local = [&](int local) {
        return local >= 0 && result.local_in_lsv[static_cast<std::size_t>(local)];
      };
      bool source_shared = false;
      switch (op.kind) {
        case MirOp::Kind::kCopy:
          source_shared = shared_local(op.a);
          break;
        case MirOp::Kind::kBin:
          source_shared = shared_local(op.a) || shared_local(op.b);
          break;
        case MirOp::Kind::kLoadGlobal:
        case MirOp::Kind::kAddrGlobal:
          source_shared = true;  // globals are always in the LSV
          break;
        case MirOp::Kind::kLoadIndex:
        case MirOp::Kind::kAddrIndex:
          source_shared = op.array.space == VarRef::Space::kGlobal ||
                          shared_local(op.array.index) || shared_local(op.a);
          break;
        case MirOp::Kind::kLoadPtr:
          source_shared = shared_local(op.a);
          break;
        case MirOp::Kind::kLoadLocalMem:
          source_shared = shared_local(op.local_mem);
          break;
        case MirOp::Kind::kAddrLocal:
          source_shared = shared_local(op.local_mem);
          break;
        case MirOp::Kind::kCall:
          // Pointers returned from called subroutines are seeds (§3.1).
          source_shared = call_shared(op);
          break;
        default:
          break;
      }
      if (source_shared && mark(op.dst)) {
        changed = true;
      }
    }
  }
  return result;
}

}  // namespace

LsvResult ComputeLsv(const MirFunction& function) {
  // Without return-type information every call result is conservatively
  // shared (what the paper's prototype does).
  return ComputeLsvImpl(function, [](const MirOp&) { return true; });
}

LsvResult ComputeLsv(const MirFunction& function, const ReturnSharedness& returns) {
  return ComputeLsvImpl(function, [&](const MirOp& op) {
    if (op.callee_index < 0) {
      return true;  // unresolvable (builtins never reach here, but stay safe)
    }
    return static_cast<bool>(returns.returns_shared[static_cast<std::size_t>(op.callee_index)]);
  });
}

ReturnSharedness ComputeReturnSharedness(const MirModule& module) {
  ReturnSharedness returns;
  returns.returns_shared.assign(module.functions.size(), false);
  // Seed: declared pointer returns always count (even `int *f() { return 0; }`
  // — the caller will dereference the result).
  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    returns.returns_shared[f] = module.functions[f].returns_pointer;
  }
  // Grow to a fixed point: marking a function shared can put more call
  // results into its callers' LSVs, which can make their returns shared too.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
      if (returns.returns_shared[f] || !module.functions[f].returns_value) {
        continue;
      }
      const LsvResult lsv = ComputeLsv(module.functions[f], returns);
      for (const MirOp& op : module.functions[f].ops) {
        if (op.kind == MirOp::Kind::kRet && op.a >= 0 &&
            lsv.local_in_lsv[static_cast<std::size_t>(op.a)]) {
          returns.returns_shared[f] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return returns;
}

}  // namespace kivati
