#include "exec/block_translate.h"

#include <algorithm>

namespace kivati {
namespace exec {
namespace {

FusedKind KindOf(Opcode op) {
  switch (op) {
    case Opcode::kNop: return FusedKind::kNop;
    case Opcode::kLoadImm: return FusedKind::kLoadImm;
    case Opcode::kMov: return FusedKind::kMov;
    case Opcode::kLoad: return FusedKind::kLoad;
    case Opcode::kStore: return FusedKind::kStore;
    case Opcode::kMovM: return FusedKind::kMovM;
    case Opcode::kXchg: return FusedKind::kXchg;
    case Opcode::kAdd: return FusedKind::kAdd;
    case Opcode::kSub: return FusedKind::kSub;
    case Opcode::kMul: return FusedKind::kMul;
    case Opcode::kDiv: return FusedKind::kDiv;
    case Opcode::kMod: return FusedKind::kMod;
    case Opcode::kAnd: return FusedKind::kAnd;
    case Opcode::kOr: return FusedKind::kOr;
    case Opcode::kXor: return FusedKind::kXor;
    case Opcode::kAddI: return FusedKind::kAddI;
    case Opcode::kCmpEq: return FusedKind::kCmpEq;
    case Opcode::kCmpNe: return FusedKind::kCmpNe;
    case Opcode::kCmpLt: return FusedKind::kCmpLt;
    case Opcode::kCmpLe: return FusedKind::kCmpLe;
    case Opcode::kJmp: return FusedKind::kJmp;
    case Opcode::kBnz: return FusedKind::kBnz;
    case Opcode::kBz: return FusedKind::kBz;
    case Opcode::kCall: return FusedKind::kCall;
    case Opcode::kCallInd: return FusedKind::kCallInd;
    case Opcode::kRet: return FusedKind::kRet;
    case Opcode::kPush: return FusedKind::kPush;
    case Opcode::kPushM: return FusedKind::kPushM;
    case Opcode::kPop: return FusedKind::kPop;
    // Kernel entries, annotations, thread termination and the multi-word
    // kRepMovs stay with the generic loop: they fire hooks, enter the
    // kernel, or need the unbounded access-list machinery.
    case Opcode::kHalt:
    case Opcode::kRepMovs:
    case Opcode::kSyscall:
    case Opcode::kABegin:
    case Opcode::kAEnd:
    case Opcode::kAClear:
      return FusedKind::kBarrier;
  }
  return FusedKind::kBarrier;
}

// Whether executing an op of this kind always moves the PC away from the
// next sequential instruction.
bool AlwaysTransfers(FusedKind kind) {
  return kind == FusedKind::kJmp || kind == FusedKind::kCall || kind == FusedKind::kCallInd ||
         kind == FusedKind::kRet;
}

// Whether the op after one of this kind starts a basic block: control may
// leave (any transfer), or the generic loop runs it (a barrier).
bool EndsBlock(FusedKind kind) {
  return AlwaysTransfers(kind) || kind == FusedKind::kBnz || kind == FusedKind::kBz ||
         kind == FusedKind::kBarrier;
}

}  // namespace

BlockTranslation::BlockTranslation(const Program& program)
    : program_(program), pc_slots_(program.pc_slots()) {
  const std::size_t n = program.size();
  ops_.resize(n);

  // Predecode every instruction into its compact op.
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& instr = program.At(i);
    TransOp& op = ops_[i];
    op.kind = KindOf(instr.op);
    op.rd = instr.rd;
    op.rs1 = instr.rs1;
    op.rs2 = instr.rs2;
    op.size = static_cast<std::uint8_t>(instr.size);
    op.next_pc = static_cast<std::uint32_t>(program.PcOf(i) + program.LengthAt(i));
    op.target_op = kNoOp;
    switch (op.kind) {
      case FusedKind::kLoadImm:
      case FusedKind::kAddI:
        op.a = instr.imm;
        break;
      case FusedKind::kJmp:
      case FusedKind::kBnz:
      case FusedKind::kBz:
      case FusedKind::kCall:
        op.a = instr.target;
        op.target_op = OpIndexOfPc(static_cast<ProgramCounter>(instr.target));
        break;
      case FusedKind::kMovM:
        op.base = instr.mem.base;
        op.a = instr.mem.offset;
        op.base2 = instr.mem2.base;
        op.b = instr.mem2.offset;
        break;
      default:
        op.base = instr.mem.base;
        op.a = instr.mem.offset;
        break;
    }
  }
  // The executor steps a sequential op to the next op index, so a last
  // instruction that can fall through would send it past the op array. Such
  // an instruction (only hand-built programs end with one; codegen ends
  // every function with ret) becomes a barrier: the generic loop runs it
  // and meets the invalid PC after it, as without translation.
  if (n > 0 && !AlwaysTransfers(ops_[n - 1].kind)) {
    ops_[n - 1].kind = FusedKind::kBarrier;
    ops_[n - 1].target_op = kNoOp;  // a barrier has no target to chain to
  }
}

std::size_t BlockTranslation::num_blocks() const {
  // A block starts at the first op, at a function entry, at a static
  // target, at a barrier (barriers stand alone), and after any op that
  // ends one.
  const std::size_t n = ops_.size();
  std::vector<bool> leader(n, false);
  for (const FunctionInfo& f : program_.functions()) {
    if (f.first_index < n) {
      leader[f.first_index] = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const TransOp& op = ops_[i];
    if (op.target_op != kNoOp) {
      leader[op.target_op] = true;
    }
    if (i == 0 || op.kind == FusedKind::kBarrier || EndsBlock(ops_[i - 1].kind)) {
      leader[i] = true;
    }
  }
  return static_cast<std::size_t>(std::count(leader.begin(), leader.end(), true));
}

}  // namespace exec
}  // namespace kivati
