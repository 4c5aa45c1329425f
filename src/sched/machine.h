// The simulated multicore machine.
//
// A Machine executes one Program over a shared AddressSpace on `num_cores`
// simulated cores, each with its own bank of hardware watchpoint registers.
// Scheduling is discrete-event: each core has its own clock; the core with
// the smallest clock executes the next instruction of its current thread and
// advances by that instruction's cost. Preemption happens on quantum expiry
// (modelled as a timer interrupt — a kernel entry) and whenever a thread
// blocks. All scheduling randomness comes from a seeded RNG, so runs are
// fully reproducible.
//
// The machine knows nothing about atomicity violations: it raises the
// KivatiHooks callbacks at the architectural events (annotations, watchpoint
// matches, kernel entries, context switches) and exposes the control surface
// (suspend/resume/pc rollback/extra cycle charges) that the Kivati kernel
// component needs. With no hooks installed it behaves as the paper's vanilla
// system.
#ifndef KIVATI_SCHED_MACHINE_H_
#define KIVATI_SCHED_MACHINE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "exec/block_translate.h"
#include "hw/debug_registers.h"
#include "isa/program.h"
#include "isa/rollback_table.h"
#include "mem/address_space.h"
#include "sched/cost_model.h"
#include "sched/hooks.h"
#include "sched/schedule_trace.h"
#include "sched/thread.h"
#include "trace/trace.h"

namespace kivati {

// PC value that a thread returns to when its entry function returns.
inline constexpr ProgramCounter kThreadExitPc = 0xDEAD0000;

enum class SchedPolicy : std::uint8_t {
  kRoundRobin,  // FIFO ready queue
  kRandom,      // uniformly random runnable thread (seeded)
};

struct MachineConfig {
  unsigned num_cores = 2;                       // the paper's Core 2 Duo
  unsigned watchpoints_per_core = kDefaultWatchpointCount;
  TrapDelivery trap_delivery = TrapDelivery::kAfter;
  SchedPolicy policy = SchedPolicy::kRandom;
  Cycles quantum = 4000;
  std::uint64_t seed = 1;
  CostModel costs;
  // Execute through the basic-block translation engine (exec/
  // block_translate.h): predecoded fused superinstructions that run all busy
  // cores in rounds, with one armed-hull watchpoint test per memory op and
  // the scheduler poll hoisted out of the op loop. Schedule controllers
  // (record, replay, guided) run fused; while an access-level trace sink
  // listens, only ops touching shared data take the per-instruction path.
  // This flag alone chooses the engine. Turning it off selects the
  // per-instruction loop alone, the oracle the block engine must match byte
  // for byte (`kivati run --no-block-translate`, block_translate_test,
  // fused_modes_test; docs/performance.md).
  bool block_translate = true;
};

// The immutable per-program state a Machine executes: the program plus what
// is derived from it. Harnesses that construct many engines for one
// workload (the shrinker's ddmin candidates, sweep grids) share one image
// instead of copying the program and re-deriving its translation per run
// (docs/performance.md).
struct ProgramImage {
  Program program;
  // Reads `program` in place, so the image is neither copied nor moved.
  RollbackTable rollback;
  // Basic-block translation (exec/block_translate.h), derived once here so
  // every machine sharing the image — sweep grids, fuzz and shrink workers
  // — shares the translation instead of re-deriving it per run.
  exec::BlockTranslation blocks;

  explicit ProgramImage(Program p)
      : program(std::move(p)), rollback(program), blocks(program) {}
  ProgramImage(const ProgramImage&) = delete;
  ProgramImage& operator=(const ProgramImage&) = delete;
};

std::shared_ptr<const ProgramImage> MakeProgramImage(Program program);

struct RunResult {
  Cycles cycles = 0;               // virtual time when the run ended
  std::uint64_t instructions = 0;  // total instructions executed
  bool all_done = false;           // every thread reached kDone
  bool deadlocked = false;         // nothing runnable and no pending wake
  bool hit_limit = false;          // stopped at the cycle limit
};

class Machine {
 public:
  // Convenience: wraps `program` in a private ProgramImage.
  Machine(Program program, MachineConfig config);
  // Shares an immutable image across machines (see ProgramImage).
  Machine(std::shared_ptr<const ProgramImage> image, MachineConfig config);

  // Installs the Kivati runtime (may be null for vanilla runs). Must be
  // called before Run.
  void set_hooks(KivatiHooks* hooks) { hooks_ = hooks; }

  // Installs the schedule record/replay controller (may be null; owned by
  // the caller — see docs/replay.md). Must be set before Run; the kernel's
  // pause sampling reads it back through schedule_controller().
  void set_schedule_controller(ScheduleController* controller) { sched_ctl_ = controller; }
  ScheduleController* schedule_controller() const { return sched_ctl_; }

  std::uint64_t instructions_executed() const { return instructions_executed_; }
  // The part of instructions_executed() the block engine ran fused (summed
  // from RunTranslated's returns; zero with block translation off).
  std::uint64_t fused_instructions() const { return fused_instructions_; }

  // --- Setup ---------------------------------------------------------------

  // Creates a thread starting at `entry` with `arg` in r0. Threads may also
  // be created by the running program via the spawn syscall.
  ThreadId SpawnThread(ProgramCounter entry, std::uint64_t arg);
  ThreadId SpawnThreadByName(const std::string& function, std::uint64_t arg);

  // --- Execution -----------------------------------------------------------

  // Runs until every thread is done, deadlock, or `max_cycles` of virtual
  // time. May be called repeatedly to continue a stopped run.
  RunResult Run(Cycles max_cycles = ~Cycles{0});

  // --- State access (used by the Kivati kernel & runtime, and by tests) ----

  AddressSpace& memory() { return memory_; }
  const Program& program() const { return image_->program; }
  const RollbackTable& rollback_table() const { return image_->rollback; }
  Trace& trace() { return trace_; }
  const CostModel& costs() const { return config_.costs; }
  const MachineConfig& config() const { return config_; }

  Cycles now() const { return now_; }
  unsigned num_cores() const { return config_.num_cores; }
  DebugRegisterFile& core_debug_regs(CoreId core) { return cores_[core].debug_regs; }

  std::size_t num_threads() const { return threads_.size(); }
  ThreadContext& thread(ThreadId tid) { return *threads_[tid]; }
  const ThreadContext& thread(ThreadId tid) const { return *threads_[tid]; }

  // The core / thread / instruction PC of the instruction currently being
  // executed. Valid only inside hook callbacks.
  CoreId executing_core() const { return executing_core_; }
  ThreadId current_thread_on(CoreId core) const { return cores_[core].current; }
  ProgramCounter current_instruction_pc() const { return current_instruction_pc_; }

  // --- Control surface for Kivati -----------------------------------------

  // Suspends `tid` until ResumeThread, or until `timeout_at` (absolute time)
  // if given, in which case OnSuspensionTimeout fires before the wake.
  void SuspendThread(ThreadId tid, std::optional<Cycles> timeout_at);
  // Wakes a kSuspended or kBlockedSync thread.
  void ResumeThread(ThreadId tid);
  // Blocks `tid` until UnblockSyncThread (the cross-core register sync wait).
  void BlockThreadForSync(ThreadId tid);
  void UnblockSyncThread(ThreadId tid);
  // Timed sleep (used for the bug-finding pause); auto-wakes.
  void SleepThread(ThreadId tid, Cycles duration);
  // Ends a timed sleep early (no-op unless the thread is sleeping).
  void CancelSleep(ThreadId tid);
  // Overwrites a thread's PC (undo engine rollback).
  void SetThreadPc(ThreadId tid, ProgramCounter pc) { thread(tid).pc = pc; }

  // Adds `cycles` to the cost of the instruction currently executing (how
  // hooks charge kernel crossings, trap handling and fast-path work).
  void ChargeExtra(Cycles cycles) { pending_extra_ += cycles; }

 private:
  struct Core {
    Cycles clock = 0;
    Cycles quantum_left = 0;
    ThreadId current = kInvalidThread;
    DebugRegisterFile debug_regs;

    explicit Core(unsigned watchpoints) : debug_regs(watchpoints) {}
  };

  // Ready-queue helpers. The queue may hold stale entries; Pop purges them
  // before picking so each scheduling decision is a pure function of the
  // runnable set.
  void MakeRunnable(ThreadId tid);
  ThreadId PopRunnable();

  void WakeExpiredTimers();
  // Inline cached-hit path: the per-iteration expiry check must not cost a
  // function call. Debug builds check the cache against a fresh scan at
  // every read.
  Cycles EarliestDeadline() const {
    if (earliest_valid_) {
      assert(earliest_deadline_ == ScanEarliestDeadline());
      return earliest_deadline_;
    }
    return EarliestDeadlineSlow();
  }
  Cycles EarliestDeadlineSlow() const;  // rescans and refills the cache
  Cycles ScanEarliestDeadline() const;

  // --- Timed-wait bookkeeping (docs/performance.md) ------------------------
  // `timed_waiters_` counts threads in a timed wait (sleeping, or suspended
  // with a deadline); `earliest_deadline_` caches their minimum wake time so
  // the hot loop's expiry check is O(1) in the no-expiry common case. The
  // cache is exact while `earliest_valid_`; removing the cached minimum
  // invalidates it and the next EarliestDeadline() rescans. Every state
  // transition in or out of a timed wait must go through these helpers.
  static bool IsTimedWait(const ThreadContext& t) {
    return t.state == ThreadState::kSleeping ||
           (t.state == ThreadState::kSuspended && t.has_deadline);
  }
  void EnterTimedWait(Cycles wake_at);
  void LeaveTimedWait(Cycles wake_at);

  // The core with the smallest clock, ties by lowest id: one pass over the
  // cores. The block engine's rounds order cores by (clock, id) themselves,
  // so Run scans once per RunTranslated call, not per fused op.
  CoreId MinClockCore() const {
    CoreId min = 0;
    for (CoreId i = 1; i < cores_.size(); ++i) {
      if (cores_[i].clock < cores_[min].clock) {
        min = i;
      }
    }
    return min;
  }

  // Assigns a thread to `core`, firing context-switch hooks.
  void Reschedule(CoreId core, bool timer_interrupt);

  // One scheduling step of a core with no current thread (after Reschedule
  // found nothing): gives the hooks their kernel-idle sync opportunity,
  // picks up any thread that wakes, otherwise jumps the core's clock to the
  // next time anything can happen. Shared between Run and the block
  // engine's fused loop — any state it leaves is a consistent loop
  // boundary.
  enum class IdleOutcome : std::uint8_t { kProgress, kDeadlock };
  IdleOutcome IdleCoreStep(CoreId core);

  // Executes one instruction of core's current thread; advances the clock.
  void ExecuteOne(CoreId core);

  // The block-translation engine's round executor (exec/block_exec.cc).
  // Every user instruction costs one cycle, so Run's (clock, id) pick
  // between kernel entries is exactly "at cycle R, every core whose clock
  // is R acts in id order". It runs predecoded ops of all busy cores round
  // by round, parks idle cores whose idle-loop sync is a proven no-op
  // (their clocks are set in closed form on exit), and returns to Run at
  // the first pick it cannot fuse: a barrier, a trap that may fire, a
  // shared-data access while an access-level sink listens, an untranslated
  // target, a quantum expiry, a blocked thread, a scheduling decision, the
  // cycle cap or a timer deadline. Run calls it only at a pick that needed
  // no Reschedule, which is the rounds' first turn. Returns the number of
  // instructions executed; 0 means the first turn could not be fused and
  // the caller must take the generic path.
  std::uint64_t RunTranslated(Cycles max_cycles);
  // RunTranslated's body, instantiated for whether an access-level sink
  // listens (exec/block_exec.cc).
  template <bool kSink>
  std::uint64_t RunFused(Cycles max_cycles);

  // Collects the accesses `instr` will perform for thread `t`, in program
  // order, for watchpoint checking. `filter` skips the old-value capture for
  // accesses no armed watchpoint can match — old values are only ever
  // consumed for the trapped access.
  void CollectAccesses(const ThreadContext& t, const Instruction& instr,
                       std::vector<MemAccess>& out,
                       const DebugRegisterFile* filter = nullptr) const;
  // Applies the semantics of `instr` for thread `t`.
  void ApplySemantics(CoreId core, ThreadContext& t, const Instruction& instr,
                      unsigned length);

  void DoSyscall(CoreId core, ThreadContext& t, const Instruction& instr);
  void ExitThread(ThreadId tid, std::uint64_t status);

  // Streams the committed shared-data accesses of the current instruction as
  // kSharedRead/kSharedWrite events (trace/sink.h; only called when a sink
  // wants access-level kinds).
  void EmitAccessEvents(const ThreadContext& t, const Instruction& instr);

  Addr EffectiveAddress(const ThreadContext& t, const MemOperand& mem) const {
    const std::uint64_t base = mem.base == kNoReg ? 0 : ReadReg(t, mem.base);
    return base + static_cast<std::uint64_t>(mem.offset);
  }

  std::shared_ptr<const ProgramImage> image_;
  MachineConfig config_;
  AddressSpace memory_;
  Trace trace_;
  Rng rng_;
  KivatiHooks* hooks_ = nullptr;
  ScheduleController* sched_ctl_ = nullptr;

  std::vector<std::unique_ptr<ThreadContext>> threads_;
  std::vector<bool> queued_;
  // Contiguous so the purged runnable set can be handed to the schedule
  // controller (guided strategies pick by thread id; docs/fuzzing.md).
  std::vector<ThreadId> ready_;
  std::vector<Core> cores_;

  Cycles now_ = 0;
  CoreId executing_core_ = 0;
  ProgramCounter current_instruction_pc_ = 0;
  Cycles pending_extra_ = 0;
  std::uint64_t instructions_executed_ = 0;
  std::uint64_t fused_instructions_ = 0;

  // Scratch reused across ExecuteOne calls.
  std::vector<MemAccess> access_scratch_;

  // --- Scheduler caches (exact; see docs/performance.md) -------------------
  std::size_t live_count_ = 0;       // threads not yet kDone
  std::size_t timed_waiters_ = 0;    // threads in a timed wait
  mutable Cycles earliest_deadline_ = ~Cycles{0};
  mutable bool earliest_valid_ = true;

  // --- Block-translation state (exec/block_exec.cc) ------------------------
  // One busy core in the round executor: it runs an op at each round from
  // `next` (its clock) up to, not including, `limit`.
  struct RoundLane {
    Cycles next = 0;
    Cycles limit = 0;
    ThreadContext* thread = nullptr;
    const DebugRegisterFile* regs = nullptr;
    std::uint32_t cursor = exec::BlockTranslation::kNoOp;
    bool watch = false;  // an op may need the per-op exit test
    CoreId core = 0;
  };
  // Scratch for the round executor, reused across calls: the busy cores in
  // id order, those of them at the current round, and the parked idle
  // cores.
  std::vector<RoundLane> lanes_;
  std::vector<RoundLane*> joined_;
  std::vector<CoreId> parked_;
};

}  // namespace kivati

#endif  // KIVATI_SCHED_MACHINE_H_
