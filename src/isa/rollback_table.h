// The paper's binary pre-processing pass (§3.3).
//
// x86 watchpoints trap *after* the accessing instruction retires, and x86
// instructions are variable length, so the kernel cannot recover the faulting
// instruction's PC by subtracting a constant. Kivati pre-scans the binary and
// records, for every instruction that accesses memory, the PC of the
// instruction that immediately follows it. At trap time, the table maps the
// post-trap PC back to the accessing instruction.
//
// The one exception is a call instruction whose operand is an indirect
// memory pointer: after the call the PC is the callee's first instruction,
// not the successor of the call. The table therefore also records every
// function entry PC; the trap handler detects this case and recovers the
// call site from the return address on the stack.
//
// Here the pre-scan needs no table of its own: the Program's dense PC table
// already names the instruction starting at every PC, and the instruction
// ending at `next_pc` is the one before it. Only the function entries are
// copied out, sorted for binary search.
#ifndef KIVATI_ISA_ROLLBACK_TABLE_H_
#define KIVATI_ISA_ROLLBACK_TABLE_H_

#include <optional>
#include <vector>

#include "isa/program.h"

namespace kivati {

class RollbackTable {
 public:
  // Reads `program`, which must outlive the table.
  explicit RollbackTable(const Program& program);

  // Maps the PC following a memory-accessing instruction back to that
  // instruction's PC. Returns nullopt if `next_pc` does not follow any
  // memory-accessing instruction (which means the trap PC needs the
  // function-entry special case, or the trap is spurious).
  std::optional<ProgramCounter> PrevAccessingPc(ProgramCounter next_pc) const;

  // True if `pc` is the first instruction of some subroutine — i.e. control
  // arrived via a call, and the call site must be recovered from the return
  // address on the stack. Empty functions count, at their entry PC.
  bool IsFunctionEntry(ProgramCounter pc) const;

  // Number of memory-accessing instructions (for tests/stats).
  std::size_t entries() const;

 private:
  const Program& program_;
  std::vector<ProgramCounter> function_entries_;  // sorted
};

}  // namespace kivati

#endif  // KIVATI_ISA_ROLLBACK_TABLE_H_
