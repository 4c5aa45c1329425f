#include "isa/program.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace kivati {

const FunctionInfo* Program::FindFunction(const std::string& name) const {
  const auto it = function_by_name_.find(name);
  return it == function_by_name_.end() ? nullptr : &functions_[it->second];
}

const FunctionInfo* Program::FunctionAt(ProgramCounter pc) const {
  // Binary search over the non-empty functions, sorted by entry PC (bodies
  // are emitted sequentially, so ranges are disjoint): find the last
  // function starting at or before `pc`, then check its end.
  const auto it = std::upper_bound(
      functions_by_pc_.begin(), functions_by_pc_.end(), pc,
      [this](ProgramCounter p, std::size_t fi) { return p < pcs_[functions_[fi].first_index]; });
  if (it == functions_by_pc_.begin()) {
    return nullptr;
  }
  const FunctionInfo& f = functions_[*(it - 1)];
  const ProgramCounter end = f.end_index < pcs_.size() ? pcs_[f.end_index] : text_end_;
  return pc < end ? &f : nullptr;
}

ProgramBuilder::ProgramBuilder() = default;

ProgramBuilder::Label ProgramBuilder::NewLabel() {
  label_to_index_.push_back(-1);
  return static_cast<Label>(label_to_index_.size() - 1);
}

void ProgramBuilder::Bind(Label label) {
  assert(label >= 0 && static_cast<std::size_t>(label) < label_to_index_.size());
  assert(label_to_index_[label] == -1 && "label bound twice");
  label_to_index_[label] = static_cast<std::int64_t>(instrs_.size());
}

void ProgramBuilder::BeginFunction(const std::string& name) {
  assert(open_function_ == -1 && "nested BeginFunction");
  Bind(FunctionEntry(name));
  functions_.push_back(FunctionInfo{name, 0, instrs_.size(), instrs_.size()});
  open_function_ = static_cast<std::int64_t>(functions_.size() - 1);
}

void ProgramBuilder::EndFunction() {
  assert(open_function_ >= 0 && "EndFunction without BeginFunction");
  functions_[open_function_].end_index = instrs_.size();
  open_function_ = -1;
}

ProgramBuilder::Label ProgramBuilder::FunctionEntry(const std::string& name) {
  auto it = function_labels_.find(name);
  if (it != function_labels_.end()) {
    return it->second;
  }
  const Label label = NewLabel();
  function_labels_.emplace(name, label);
  return label;
}

std::size_t ProgramBuilder::Emit(Instruction instr) {
  instrs_.push_back(instr);
  return instrs_.size() - 1;
}

std::size_t ProgramBuilder::EmitBranch(Instruction instr, Label label) {
  const std::size_t index = Emit(instr);
  pending_.push_back(Pending{index, label, /*into_imm=*/false});
  return index;
}

void ProgramBuilder::LoadFunctionAddress(RegId rd, const std::string& function) {
  // The placeholder immediate must have the same encoded length as the final
  // PC; PCs always fit in 32 bits, so a zero placeholder is length-stable.
  const std::size_t index = Emit({.op = Opcode::kLoadImm, .rd = rd, .imm = 0});
  pending_.push_back(Pending{index, FunctionEntry(function), /*into_imm=*/true});
}

Program ProgramBuilder::Build() {
  assert(!built_ && "Build called twice");
  assert(open_function_ == -1 && "unterminated function");
  built_ = true;

  Program program;
  program.instrs_ = std::move(instrs_);
  program.pcs_.resize(program.instrs_.size());
  program.lengths_.resize(program.instrs_.size());
  ProgramCounter pc = 0;
  for (std::size_t i = 0; i < program.instrs_.size(); ++i) {
    const unsigned length = EncodedLength(program.instrs_[i]);
    assert(length >= 1 && length <= 255);
    program.pcs_[i] = pc;
    program.lengths_[i] = static_cast<std::uint8_t>(length);
    pc += length;
  }
  program.text_end_ = pc;
  // Dense PC -> index table for O(1) dispatch. Instruction counts stay far
  // below 2^32 - 1 (text bytes are the bound), so index + 1 fits 32 bits;
  // the block translation stores PCs in 32 bits too.
  assert(program.instrs_.size() < 0xFFFFFFFFu);
  assert(program.text_end_ <= 0xFFFFFFFFu);
  program.pc_slot_.assign(static_cast<std::size_t>(program.text_end_), 0);
  for (std::size_t i = 0; i < program.instrs_.size(); ++i) {
    program.pc_slot_[static_cast<std::size_t>(program.pcs_[i])] =
        static_cast<std::uint32_t>(i + 1);
  }

  for (const auto& pending : pending_) {
    const std::int64_t index = label_to_index_[pending.label];
    if (index < 0) {
      throw std::runtime_error("ProgramBuilder: unbound label referenced");
    }
    if (static_cast<std::size_t>(index) >= program.instrs_.size()) {
      throw std::runtime_error("ProgramBuilder: label bound past end of program");
    }
    const auto pc = static_cast<std::int64_t>(program.pcs_[static_cast<std::size_t>(index)]);
    if (pending.into_imm) {
      program.instrs_[pending.instr_index].imm = pc;
    } else {
      program.instrs_[pending.instr_index].target = pc;
    }
  }

  program.functions_ = std::move(functions_);
  for (std::size_t i = 0; i < program.functions_.size(); ++i) {
    FunctionInfo& f = program.functions_[i];
    // An empty function at the end of the text starts at text_end.
    f.entry = f.first_index < program.pcs_.size() ? program.pcs_[f.first_index]
                                                  : program.text_end_;
    program.function_by_name_.emplace(f.name, i);
    if (f.first_index < f.end_index) {
      program.functions_by_pc_.push_back(i);
    }
  }
  std::sort(program.functions_by_pc_.begin(), program.functions_by_pc_.end(),
            [&program](std::size_t a, std::size_t b) {
              return program.pcs_[program.functions_[a].first_index] <
                     program.pcs_[program.functions_[b].first_index];
            });
  return program;
}

}  // namespace kivati
