#include "isa/rollback_table.h"

#include <algorithm>

namespace kivati {

RollbackTable::RollbackTable(const Program& program) : program_(program) {
  function_entries_.reserve(program.functions().size());
  for (const auto& f : program.functions()) {
    function_entries_.push_back(f.entry);
  }
  std::sort(function_entries_.begin(), function_entries_.end());
}

std::optional<ProgramCounter> RollbackTable::PrevAccessingPc(ProgramCounter next_pc) const {
  // The instruction ending at `next_pc` precedes the one starting there, or
  // is the last instruction when `next_pc` is the end of the text.
  std::size_t next_index = program_.size();
  if (next_pc != program_.text_end()) {
    const auto index = program_.IndexOfPc(next_pc);
    if (!index.has_value()) {
      return std::nullopt;
    }
    next_index = *index;
  }
  if (next_index == 0 || !AccessesMemory(program_.At(next_index - 1).op)) {
    return std::nullopt;
  }
  return program_.PcOf(next_index - 1);
}

bool RollbackTable::IsFunctionEntry(ProgramCounter pc) const {
  return std::binary_search(function_entries_.begin(), function_entries_.end(), pc);
}

std::size_t RollbackTable::entries() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < program_.size(); ++i) {
    count += AccessesMemory(program_.At(i).op) ? 1 : 0;
  }
  return count;
}

}  // namespace kivati
