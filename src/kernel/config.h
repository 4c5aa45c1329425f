// Kivati configuration: modes, optimization toggles and timing parameters.
//
// The paper's Table 3 evaluates four configurations; PresetFor() builds the
// matching toggle combination. Each optimization can also be flipped
// independently for the ablation benches.
#ifndef KIVATI_KERNEL_CONFIG_H_
#define KIVATI_KERNEL_CONFIG_H_

#include <string>
#include <unordered_set>

#include "common/types.h"
#include "mem/address_space.h"

namespace kivati {

// Usage modes (paper §2.3).
enum class KivatiMode {
  kPrevention,  // lowest overhead; detect and prevent
  kBugFinding,  // additionally pause the local thread at each begin_atomic
};

// The four measurement configurations of Table 3.
enum class OptimizationPreset {
  kBase,         // every begin/end_atomic crosses into the kernel
  kNullSyscall,  // begin/end_atomic enter the kernel and return immediately
                 // (isolates crossing cost; detection disabled)
  kSyncVars,     // base + synchronization variables whitelisted (opt. 4)
  kOptimized,    // all optimizations of §3.4
};

struct KivatiConfig {
  KivatiMode mode = KivatiMode::kPrevention;

  // Diagnostic mode: annotations enter the kernel but do nothing.
  bool null_syscall = false;

  // Optimization 1: user-space replicated metadata fast path — skip the
  // crossing when no hardware register must change.
  bool opt_fast_path = false;
  // Optimization 2: lazy watchpoint free — leave the hardware armed on the
  // last end_atomic; reconcile on the next trap or begin_atomic.
  bool opt_lazy_free = false;
  // Optimization 3: disable watchpoints while their owner thread runs and
  // recover first-local-write values from the shared user/kernel page.
  bool opt_local_disable = false;
  // Optimization 4 is the sync-var whitelist; it is expressed through
  // `whitelist` below (the annotator labels sync-var ARs).

  // AR IDs whose annotations return immediately from user space.
  std::unordered_set<ArId> whitelist;

  // Optional whitelist file, re-read periodically during execution so a
  // developer can push updates to long-running processes (paper §3.2).
  std::string whitelist_path;
  double whitelist_reread_ms = 50.0;

  // Suspension timeout (paper: 10 ms).
  double suspension_timeout_ms = 10.0;
  // Bug-finding pause inserted at begin_atomic (paper: 20 ms or 50 ms).
  double bugfinding_pause_ms = 20.0;
  // Fraction of monitored begin_atomics that pause in bug-finding mode. The
  // paper's prose says the pause happens on begin_atomic; its measured
  // bug-finding overhead (~2.5% over prevention mode at ~1M begins/s) is
  // only consistent with pausing a small fraction of them, so the fraction
  // is exposed as a parameter.
  double bugfinding_pause_probability = 0.002;
  // Seed for the pause-sampling RNG (the only nondeterminism Kivati adds).
  std::uint64_t seed = 0x5eed;

  static KivatiConfig PresetFor(OptimizationPreset preset, KivatiMode mode) {
    KivatiConfig config;
    config.mode = mode;
    switch (preset) {
      case OptimizationPreset::kBase:
        break;
      case OptimizationPreset::kNullSyscall:
        config.null_syscall = true;
        break;
      case OptimizationPreset::kSyncVars:
        break;  // caller adds sync-var AR ids to `whitelist`
      case OptimizationPreset::kOptimized:
        config.opt_fast_path = true;
        config.opt_lazy_free = true;
        config.opt_local_disable = true;
        break;
    }
    return config;
  }
};

// Address of the shared-page slot that holds the replicated value of the
// first local write for AR `ar` (optimization 3). The compiler emits the
// replica store to the same formula the kernel reads from.
constexpr Addr SharedPageSlot(ArId ar) {
  return kSharedPageBase + (ar % (kSharedPageSize / 8)) * 8;
}

}  // namespace kivati

#endif  // KIVATI_KERNEL_CONFIG_H_
