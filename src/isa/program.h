// Program container and assembler-style builder.
//
// A Program is an ordered list of variable-length instructions with byte
// PCs, plus function metadata (name, entry PC) used by the rollback table's
// call-instruction special case and by the spawn syscall.
#ifndef KIVATI_ISA_PROGRAM_H_
#define KIVATI_ISA_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/instruction.h"

namespace kivati {

struct FunctionInfo {
  std::string name;
  ProgramCounter entry = 0;
  // Index range [first_index, end_index) into the instruction list.
  std::size_t first_index = 0;
  std::size_t end_index = 0;
};

class Program {
 public:
  std::size_t size() const { return instrs_.size(); }
  const Instruction& At(std::size_t index) const { return instrs_[index]; }
  ProgramCounter PcOf(std::size_t index) const { return pcs_[index]; }

  // The dense PC table, built once at Build() time and sized text_end() (the
  // text segment is small and contiguous): at each text byte, the index + 1
  // of the instruction starting there, or 0 at a mid-instruction byte. The
  // block translation reads it in place (exec/block_translate.h).
  std::span<const std::uint32_t> pc_slots() const { return pc_slot_; }

  // Index of the instruction whose first byte is at `pc`, if any. O(1)
  // through pc_slots(); this sits on the interpreter's per-instruction
  // dispatch path (docs/performance.md).
  std::optional<std::size_t> IndexOfPc(ProgramCounter pc) const {
    const std::span<const std::uint32_t> slots = pc_slots();
    const std::uint32_t slot = pc < slots.size() ? slots[static_cast<std::size_t>(pc)] : 0;
    if (slot == 0) {
      return std::nullopt;
    }
    return slot - 1;
  }

  // Encoded length of instruction `index`, cached at Build() time (equals
  // EncodedLength(At(index)); see isa_test).
  unsigned LengthAt(std::size_t index) const { return lengths_[index]; }

  // One past the last instruction byte.
  ProgramCounter text_end() const { return text_end_; }

  const std::vector<FunctionInfo>& functions() const { return functions_; }
  const FunctionInfo* FindFunction(const std::string& name) const;
  // The function containing `pc`, if any.
  const FunctionInfo* FunctionAt(ProgramCounter pc) const;

 private:
  friend class ProgramBuilder;

  std::vector<Instruction> instrs_;
  std::vector<ProgramCounter> pcs_;
  std::vector<std::uint32_t> pc_slot_;  // see pc_slots()
  std::vector<std::uint8_t> lengths_;  // EncodedLength per instruction
  std::vector<FunctionInfo> functions_;
  // Function lookups: by name (names are unique — Bind rejects redefinition)
  // and by entry PC (non-empty functions, sorted; bodies are emitted
  // sequentially so their PC ranges are disjoint).
  std::unordered_map<std::string, std::size_t> function_by_name_;
  std::vector<std::size_t> functions_by_pc_;
  ProgramCounter text_end_ = 0;
};

// Two-pass builder: emit instructions with symbolic labels, then Build()
// assigns byte PCs and patches branch/call targets.
class ProgramBuilder {
 public:
  using Label = std::int32_t;

  ProgramBuilder();

  // Sizes the instruction and label arrays for about `instructions`
  // instructions and `labels` labels; the builder still grows past them.
  void Reserve(std::size_t instructions, std::size_t labels);

  // Creates a fresh unbound label.
  Label NewLabel();
  // Binds `label` to the next emitted instruction.
  void Bind(Label label);

  // Starts/ends a function body. Functions may be referenced by name before
  // they are defined. EndFunction does not emit a return; callers emit their
  // own epilogue (the compiler adds clear_ar + ret).
  void BeginFunction(const std::string& name);
  void EndFunction();

  // Label naming the entry of `function` (creating it if needed).
  Label FunctionEntry(const std::string& name);

  // Appends `instr`; returns its index.
  std::size_t Emit(Instruction instr);
  // Appends a control-transfer instruction whose target is `label`.
  std::size_t EmitBranch(Instruction instr, Label label);
  // Loads the entry PC of `function` into `rd` (patched at Build time); used
  // to pass function addresses to the spawn syscall.
  void LoadFunctionAddress(RegId rd, const std::string& function);

  // --- Convenience emitters -------------------------------------------------
  void Nop() { Emit({.op = Opcode::kNop}); }
  void Halt() { Emit({.op = Opcode::kHalt}); }
  void LoadImm(RegId rd, std::int64_t imm) {
    Emit({.op = Opcode::kLoadImm, .rd = rd, .imm = imm});
  }
  void Mov(RegId rd, RegId rs) { Emit({.op = Opcode::kMov, .rd = rd, .rs1 = rs}); }
  void Load(RegId rd, MemOperand mem, unsigned size = 8) {
    Emit({.op = Opcode::kLoad, .rd = rd, .mem = mem, .size = size});
  }
  void Store(MemOperand mem, RegId rs, unsigned size = 8) {
    Emit({.op = Opcode::kStore, .rs1 = rs, .mem = mem, .size = size});
  }
  void MovM(MemOperand dst, MemOperand src, unsigned size = 8) {
    Emit({.op = Opcode::kMovM, .mem = dst, .mem2 = src, .size = size});
  }
  void Xchg(RegId rd, MemOperand mem, RegId rs, unsigned size = 8) {
    Emit({.op = Opcode::kXchg, .rd = rd, .rs1 = rs, .mem = mem, .size = size});
  }
  void Alu(Opcode op, RegId rd, RegId rs1, RegId rs2) {
    Emit({.op = op, .rd = rd, .rs1 = rs1, .rs2 = rs2});
  }
  void AddI(RegId rd, RegId rs1, std::int64_t imm) {
    Emit({.op = Opcode::kAddI, .rd = rd, .rs1 = rs1, .imm = imm});
  }
  void Jmp(Label label) { EmitBranch({.op = Opcode::kJmp}, label); }
  void Bnz(RegId rs, Label label) { EmitBranch({.op = Opcode::kBnz, .rs1 = rs}, label); }
  void Bz(RegId rs, Label label) { EmitBranch({.op = Opcode::kBz, .rs1 = rs}, label); }
  void Call(const std::string& function) {
    EmitBranch({.op = Opcode::kCall}, FunctionEntry(function));
  }
  void CallInd(MemOperand mem) { Emit({.op = Opcode::kCallInd, .mem = mem}); }
  void Ret() { Emit({.op = Opcode::kRet}); }
  void Push(RegId rs) { Emit({.op = Opcode::kPush, .rs1 = rs}); }
  void PushM(MemOperand mem, unsigned size = 8) {
    Emit({.op = Opcode::kPushM, .mem = mem, .size = size});
  }
  void Pop(RegId rd) { Emit({.op = Opcode::kPop, .rd = rd}); }
  // rd = word count, rs1 = source address, rs2 = destination address.
  void RepMovs(RegId count, RegId src, RegId dst) {
    Emit({.op = Opcode::kRepMovs, .rd = count, .rs1 = src, .rs2 = dst});
  }
  void SyscallOp(Syscall call) {
    Emit({.op = Opcode::kSyscall, .imm = static_cast<std::int64_t>(call)});
  }
  void BeginAtomic(ArId ar, MemOperand mem, unsigned size, WatchType watch, AccessType first,
                   WatchType joint = WatchType::kNone) {
    Emit({.op = Opcode::kABegin,
          .mem = mem,
          .size = size,
          .ar_id = ar,
          .watch = watch,
          .local_first = first,
          .joint = joint});
  }
  void EndAtomic(ArId ar, AccessType second) {
    Emit({.op = Opcode::kAEnd, .ar_id = ar, .local_second = second});
  }
  void ClearAr() { Emit({.op = Opcode::kAClear}); }

  // Assigns PCs, patches every label reference, finalizes function ranges.
  // The builder must not be reused afterwards.
  Program Build();

 private:
  struct Pending {
    std::size_t instr_index;
    Label label;
    bool into_imm = false;  // patch the immediate instead of the branch target
  };

  std::vector<Instruction> instrs_;
  std::vector<std::int64_t> label_to_index_;  // -1 while unbound
  std::vector<Pending> pending_;
  std::unordered_map<std::string, Label> function_labels_;
  std::vector<FunctionInfo> functions_;
  std::int64_t open_function_ = -1;
  bool built_ = false;
};

}  // namespace kivati

#endif  // KIVATI_ISA_PROGRAM_H_
