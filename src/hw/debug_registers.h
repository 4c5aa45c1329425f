// Model of per-core hardware watchpoint (debug) registers.
//
// Mirrors the x86 DR0-DR3/DR7 facility that Kivati programs from ring 0:
// each core has a small bank of watchpoints, each configured with a byte
// address, an access width (1, 2, 4 or 8 bytes) and a trap condition (read,
// write, or both). The bank size defaults to 4, as on Intel/AMD x86, but is
// configurable because the paper's Table 9 sweeps 2-12 registers.
//
// Trap delivery semantics are modelled explicitly:
//   kAfter  — the trap is raised after the accessing instruction retires
//             (x86, ARM): the access has committed and must be *undone* to
//             be reordered. This is the hard case the paper solves.
//   kBefore — the trap is raised before the access commits (SPARC): the
//             access can simply be delayed. Provided for the ablation bench.
#ifndef KIVATI_HW_DEBUG_REGISTERS_H_
#define KIVATI_HW_DEBUG_REGISTERS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace kivati {

inline constexpr unsigned kDefaultWatchpointCount = 4;  // x86
inline constexpr unsigned kMaxWatchpointCount = 16;

enum class TrapDelivery : std::uint8_t {
  kAfter,   // x86/ARM: trap after the access has committed
  kBefore,  // SPARC: trap before the access commits
};

struct WatchpointConfig {
  bool enabled = false;
  Addr addr = 0;
  unsigned size = 0;          // watched width in bytes
  WatchType watch = WatchType::kNone;
};

class DebugRegisterFile {
 public:
  explicit DebugRegisterFile(unsigned count = kDefaultWatchpointCount);

  unsigned count() const { return static_cast<unsigned>(regs_.size()); }
  const WatchpointConfig& Get(unsigned slot) const { return regs_[slot]; }

  // Programs slot `slot`; any previous configuration is replaced.
  void Set(unsigned slot, Addr addr, unsigned size, WatchType watch);
  // Disables slot `slot`.
  void Clear(unsigned slot);
  void ClearAll();

  // Returns the lowest-numbered enabled slot whose watched range overlaps
  // [addr, addr+size) and whose trap condition matches `type`. Inline so the
  // no-overlap rejection (the per-access common case in the interpreter)
  // costs one hull test and no function call.
  std::optional<unsigned> Match(Addr addr, unsigned size, AccessType type) const {
    if (!MayMatch(addr, size)) {
      return std::nullopt;
    }
    return MatchSlots(addr, size, type);
  }

  // --- Armed summary (interpreter fast filter, docs/performance.md) --------
  // The simulator executes millions of accesses against at most `count()`
  // armed slots; these O(1) tests let it skip the per-access Match scan and
  // the old-value capture when no armed watchpoint can possibly overlap.

  // True if any slot is enabled.
  bool any_armed() const { return armed_count_ != 0; }

  // Conservative overlap test: false only when NO enabled slot can match an
  // access of [addr, addr+size) of any type. A superset of Match: whenever
  // Match returns a slot, MayMatch is true (hw_test checks the property).
  bool MayMatch(Addr addr, unsigned size) const {
    return armed_count_ != 0 && addr < armed_max_end_ && armed_min_addr_ < addr + size;
  }

  // Copies the full register image from `other` (the cross-core sync step).
  void CopyFrom(const DebugRegisterFile& other);

  // Monotonic generation number, bumped on every mutation. Cores compare
  // generations against the kernel's canonical image to decide whether an
  // opportunistic sync is needed.
  std::uint64_t generation() const { return generation_; }

 private:
  std::optional<unsigned> MatchSlots(Addr addr, unsigned size, AccessType type) const;
  void RecomputeSummary();

  std::vector<WatchpointConfig> regs_;
  std::uint64_t generation_ = 0;
  // Summary of the enabled slots: count plus the covered address hull
  // [armed_min_addr_, armed_max_end_). Maintained on every mutation.
  unsigned armed_count_ = 0;
  Addr armed_min_addr_ = 0;
  Addr armed_max_end_ = 0;
};

}  // namespace kivati

#endif  // KIVATI_HW_DEBUG_REGISTERS_H_
