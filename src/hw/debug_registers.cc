#include "hw/debug_registers.h"

#include <algorithm>
#include <cassert>

namespace kivati {

DebugRegisterFile::DebugRegisterFile(unsigned count) : regs_(count) {
  assert(count >= 1 && count <= kMaxWatchpointCount);
}

void DebugRegisterFile::Set(unsigned slot, Addr addr, unsigned size, WatchType watch) {
  assert(slot < regs_.size());
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  assert(watch != WatchType::kNone);
  regs_[slot] = WatchpointConfig{true, addr, size, watch};
  ++generation_;
  RecomputeSummary();
}

void DebugRegisterFile::Clear(unsigned slot) {
  assert(slot < regs_.size());
  regs_[slot] = WatchpointConfig{};
  ++generation_;
  RecomputeSummary();
}

void DebugRegisterFile::ClearAll() {
  for (auto& reg : regs_) {
    reg = WatchpointConfig{};
  }
  ++generation_;
  RecomputeSummary();
}

void DebugRegisterFile::RecomputeSummary() {
  armed_count_ = 0;
  armed_min_addr_ = ~Addr{0};
  armed_max_end_ = 0;
  for (const WatchpointConfig& reg : regs_) {
    if (!reg.enabled) {
      continue;
    }
    ++armed_count_;
    armed_min_addr_ = std::min(armed_min_addr_, reg.addr);
    armed_max_end_ = std::max(armed_max_end_, reg.addr + reg.size);
  }
}

std::optional<unsigned> DebugRegisterFile::MatchSlots(Addr addr, unsigned size,
                                                      AccessType type) const {
  for (unsigned slot = 0; slot < regs_.size(); ++slot) {
    const WatchpointConfig& reg = regs_[slot];
    if (!reg.enabled || !Matches(reg.watch, type)) {
      continue;
    }
    // Range overlap, as on x86 where any byte of the access inside the
    // watched region raises the trap.
    const bool overlaps = addr < reg.addr + reg.size && reg.addr < addr + size;
    if (overlaps) {
      return slot;
    }
  }
  return std::nullopt;
}

void DebugRegisterFile::CopyFrom(const DebugRegisterFile& other) {
  assert(regs_.size() == other.regs_.size());
  regs_ = other.regs_;
  generation_ = other.generation_;
  armed_count_ = other.armed_count_;
  armed_min_addr_ = other.armed_min_addr_;
  armed_max_end_ = other.armed_max_end_;
}

}  // namespace kivati
