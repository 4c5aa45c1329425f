// Basic-block translation of a Program (docs/performance.md).
//
// The second-generation execution engine stops re-dispatching the fat
// Instruction struct per step: a one-time leader analysis over the program
// discovers basic blocks, each instruction is predecoded into a compact
// TransOp specialized by addressing mode, and static branch/call targets are
// resolved to op indices so the hot loop chains ops without touching the
// PC->index table (the translation tier follows Valgrind's ucode playbook).
// Watchpoints are not part of the translation: the executor tests each op
// that touches memory against the armed hull of its core's registers
// (exec/block_exec.cc).
//
// The translation is derived once per ProgramImage, so sweep, fuzz and
// shrink workers sharing an image share the translation. It is purely
// structural: PCs, instruction indices and per-instruction costs are
// preserved exactly, which is what keeps block runs byte-identical to the
// per-instruction loop (block_translate_test, fused_modes_test), and keeps
// `kivati annotate`/`analyze` line attribution untouched.
#ifndef KIVATI_EXEC_BLOCK_TRANSLATE_H_
#define KIVATI_EXEC_BLOCK_TRANSLATE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/program.h"

namespace kivati {
namespace exec {

// Predecoded operation kinds. kBarrier marks instructions the block engine
// never executes itself — syscalls, annotations (kABegin/kAEnd/kAClear),
// kHalt and kRepMovs — because they enter the kernel, fire hooks, or need
// the full access-list machinery; the engine bails out and the generic loop
// executes them. A last instruction that can fall through past the end of
// the text is a barrier too. Barriers always form singleton blocks.
enum class FusedKind : std::uint8_t {
  kBarrier,
  kNop,
  kLoadImm,
  kMov,
  kLoad,
  kStore,
  kMovM,
  kXchg,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAnd,
  kOr,
  kXor,
  kAddI,
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kJmp,
  kBnz,
  kBz,
  kCall,
  kCallInd,
  kRet,
  kPush,
  kPushM,
  kPop,
};

// One predecoded instruction (40 bytes vs the fat Instruction's ~100).
// Field use by kind:
//   a          immediate (kLoadImm/kAddI), primary memory offset, or the
//              static branch/call target PC (kJmp/kBnz/kBz/kCall)
//   b          secondary memory offset (kMovM source)
//   base/base2 memory operand base registers; kNoReg = absolute operand
//   target_op  op index of the static branch/call target (kNoOp if the
//              target PC is not an instruction start)
//   next_pc    PC of the next sequential instruction
struct TransOp {
  FusedKind kind = FusedKind::kBarrier;
  RegId rd = 0;
  RegId rs1 = 0;
  RegId rs2 = 0;
  std::uint8_t size = 8;
  RegId base = kNoReg;
  RegId base2 = kNoReg;
  std::uint32_t block = 0;
  std::uint32_t target_op = 0;
  ProgramCounter next_pc = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

struct TransBlock {
  std::uint32_t first_op = 0;
  std::uint32_t end_op = 0;  // one past the last op
};

class BlockTranslation {
 public:
  static constexpr std::uint32_t kNoOp = 0xffffffffu;

  explicit BlockTranslation(const Program& program);

  std::size_t num_ops() const { return ops_.size(); }
  const TransOp* ops() const { return ops_.data(); }
  const TransOp& op(std::uint32_t index) const { return ops_[index]; }

  std::size_t num_blocks() const { return blocks_.size(); }
  const TransBlock& block(std::uint32_t id) const { return blocks_[id]; }

  // Op index of the instruction whose first byte is at `pc`; kNoOp when the
  // PC is invalid (mid-instruction, past text_end, kThreadExitPc).
  std::uint32_t OpIndexOfPc(ProgramCounter pc) const {
    if (pc >= pc_to_op_.size()) {
      return kNoOp;
    }
    return pc_to_op_[static_cast<std::size_t>(pc)];
  }

 private:
  std::vector<TransOp> ops_;          // one per instruction index
  std::vector<TransBlock> blocks_;
  std::vector<std::uint32_t> pc_to_op_;  // dense, sized text_end
};

}  // namespace exec
}  // namespace kivati

#endif  // KIVATI_EXEC_BLOCK_TRANSLATE_H_
