// Virtual-time cost model.
//
// The simulator measures everything in cycles. The paper's machine is a
// 2.13 GHz Core 2 Duo; we define a "simulated millisecond" as a configurable
// number of cycles so experiments stay fast while ratios (overhead %, rates
// per second) keep the paper's shape. Kernel crossings are deliberately two
// orders of magnitude more expensive than user instructions — that ratio is
// what makes the paper's optimizations matter.
#ifndef KIVATI_SCHED_COST_MODEL_H_
#define KIVATI_SCHED_COST_MODEL_H_

#include "common/types.h"

namespace kivati {

// Every user-mode instruction costs one cycle. The block engine's rounds
// (exec/block_exec.cc) rely on it: between kernel entries, every core whose
// clock is R acts once at cycle R, in id order.
inline constexpr Cycles kUserInstructionCycles = 1;

struct CostModel {
  // Round trip into the kernel and back (syscall or annotation slow path).
  Cycles kernel_crossing = 120;
  // Extra handling cost of a watchpoint trap (on top of the crossing).
  Cycles watchpoint_trap = 250;
  // Context switch / timer-interrupt processing.
  Cycles context_switch = 60;
  // User-space annotation fast path (replicated metadata lookup, no crossing).
  Cycles fast_path = 8;
  // Cycles per simulated millisecond. Scales the 10 ms suspension timeout
  // and the 20/50 ms bug-finding pauses. Deliberately compressed relative
  // to a 2 GHz machine so second-scale experiments stay simulable; all
  // reported quantities are ratios or rates, which the compression
  // preserves.
  Cycles cycles_per_ms = 5'000;

  Cycles FromMs(double ms) const {
    return static_cast<Cycles>(ms * static_cast<double>(cycles_per_ms));
  }
  double ToMs(Cycles cycles) const {
    return static_cast<double>(cycles) / static_cast<double>(cycles_per_ms);
  }
  double ToSeconds(Cycles cycles) const { return ToMs(cycles) / 1000.0; }
};

}  // namespace kivati

#endif  // KIVATI_SCHED_COST_MODEL_H_
