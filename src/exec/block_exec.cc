// The block-translation engine's round executor (Machine member; see
// exec/block_translate.h for the translation itself).
//
// Byte-identity with the generic loop is the design constraint: racy
// shared-memory values and ScheduleTrace instruction stamps depend on the
// *global* interleaving, so fused execution must reproduce Run's
// discrete-event (clock, id) pick exactly. It can do so in bulk because
// every user instruction costs one cycle, so between kernel entries that
// pick is a fixed pattern: at cycle R, every core whose clock is R acts
// once, in id order, and moves to R + 1. The executor therefore runs
// *rounds* over predecoded ops under one static stop point — the first
// (clock, id) pick at which a quantum expires, the cycle cap or a timer
// deadline is reached, or a core must leave fused code — and hoists the
// per-instruction overhead: the pick itself, the PC->index lookup, the
// fat Instruction load, the access-list build, the trap Match scans, the
// trace/event mask tests and the per-op accounting.
//
// Idle cores are *parked* while the ready queue is empty and their
// idle-loop sync is a proven no-op (no hooks, or IdleSyncIsNoOp): each
// skipped IdleCoreStep is then a pure clock jump, replayed in closed form
// on exit. Neither condition can change inside the rounds, since nothing
// there enters the kernel.
//
// Every exit leaves the machine in exactly the state the generic loop has
// at the same pick, so the executor may stop at any turn: barriers
// (syscalls, annotations, halt, rep-movs), possible watchpoint hits (the
// outer ExecuteOne redoes the access with the full Match/undo machinery),
// shared-data accesses while an access-level sink listens (ExecuteOne
// emits their events), untranslated targets, quantum expiry and blocked
// threads (outer Reschedule), idle cores facing a scheduling decision,
// timer deadlines (outer WakeExpiredTimers) and the cycle cap. An idle core
// whose sync is a real one is stepped here, and the rounds are re-derived.
// Schedule controllers need no deopt: they are consulted only in
// PopRunnable, at quantum preemptions and at begin_atomic, all reached
// outside fused ops with the instruction count flushed. Nothing deopts a
// whole run: every user instruction costs kUserInstructionCycles, and the
// sink mask is re-read on every entry because sinks may subscribe between
// Run calls. Run enters only at a pick that needed no Reschedule, which is the
// lowest (clock, id) and hence the rounds' first turn; after a Reschedule
// the committed op runs in ExecuteOne.
#include <algorithm>

#include "sched/machine.h"

namespace kivati {

namespace {

// Conservative pre-execution filter: true when `op` must go to the outer
// ExecuteOne because some access of it
//   - might overlap an armed watchpoint range (superset of
//     DebugRegisterFile::Match, so a false return proves no trap — and no
//     old-value capture — can be needed), or
//   - with `kShared` (an access-level sink listens), starts in shared data
//     (IsSharedData): exactly the accesses EmitAccessEvents reports, so an
//     op without one emits no event and may stay fused.
// Mirrors CollectAccesses.
template <bool kShared>
bool MustLeave(const exec::TransOp& op, const ThreadContext& t, const DebugRegisterFile& regs) {
  const auto ea = [&t](RegId base, std::int64_t offset) {
    const std::uint64_t b = base == kNoReg ? 0 : ReadReg(t, base);
    return b + static_cast<std::uint64_t>(offset);
  };
  const auto hit = [&regs](Addr addr, unsigned size) {
    return regs.MayMatch(addr, size) || (kShared && IsSharedData(addr));
  };
  switch (op.kind) {
    case exec::FusedKind::kLoad:
    case exec::FusedKind::kStore:
    case exec::FusedKind::kXchg:
      return hit(ea(op.base, op.a), op.size);
    case exec::FusedKind::kMovM:
      return hit(ea(op.base2, op.b), op.size) || hit(ea(op.base, op.a), op.size);
    case exec::FusedKind::kPushM:
      return hit(ea(op.base, op.a), op.size) || hit(t.sp - 8, 8);
    case exec::FusedKind::kCallInd:
      return hit(ea(op.base, op.a), 8) || hit(t.sp - 8, 8);
    case exec::FusedKind::kPush:
    case exec::FusedKind::kCall:
      return hit(t.sp - 8, 8);
    case exec::FusedKind::kPop:
    case exec::FusedKind::kRet:
      return hit(t.sp, 8);
    default:
      return false;  // no memory access
  }
}

// Executes one fused op (anything but kBarrier) and returns the cursor of
// the next op — kNoOp when a dynamic target (indirect call, return) has no
// translation, in which case the caller re-derives state from the PC. Forced
// inline: the rounds' speed depends on this switch sitting in their body,
// and GCC's size heuristics otherwise emit it as a call.
[[gnu::always_inline]] inline std::uint32_t ExecFusedOp(const exec::TransOp* ops,
                                                        std::uint32_t cur, ThreadContext& t,
                                                        AddressSpace& memory,
                                                        const exec::BlockTranslation& trans) {
  const exec::TransOp& op = ops[cur];
  std::uint32_t next = cur + 1;
  switch (op.kind) {
    case exec::FusedKind::kNop:
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kLoadImm:
      WriteReg(t, op.rd, static_cast<std::uint64_t>(op.a));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kMov:
      WriteReg(t, op.rd, ReadReg(t, op.rs1));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kLoad: {
      const Addr ea = (op.base == kNoReg ? 0 : ReadReg(t, op.base)) +
                      static_cast<std::uint64_t>(op.a);
      WriteReg(t, op.rd, memory.Read(ea, op.size));
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kStore: {
      const Addr ea = (op.base == kNoReg ? 0 : ReadReg(t, op.base)) +
                      static_cast<std::uint64_t>(op.a);
      memory.Write(ea, op.size, ReadReg(t, op.rs1));
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kMovM: {
      const Addr src = (op.base2 == kNoReg ? 0 : ReadReg(t, op.base2)) +
                       static_cast<std::uint64_t>(op.b);
      const Addr dst = (op.base == kNoReg ? 0 : ReadReg(t, op.base)) +
                       static_cast<std::uint64_t>(op.a);
      memory.Write(dst, op.size, memory.Read(src, op.size));
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kXchg: {
      const Addr ea = (op.base == kNoReg ? 0 : ReadReg(t, op.base)) +
                      static_cast<std::uint64_t>(op.a);
      const std::uint64_t old = memory.Read(ea, op.size);
      memory.Write(ea, op.size, ReadReg(t, op.rs1));
      WriteReg(t, op.rd, old);
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kAdd:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) + ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kSub:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) - ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kMul:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) * ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kDiv: {
      const std::uint64_t divisor = ReadReg(t, op.rs2);
      WriteReg(t, op.rd, divisor == 0 ? 0 : ReadReg(t, op.rs1) / divisor);
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kMod: {
      const std::uint64_t divisor = ReadReg(t, op.rs2);
      WriteReg(t, op.rd, divisor == 0 ? 0 : ReadReg(t, op.rs1) % divisor);
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kAnd:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) & ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kOr:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) | ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kXor:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) ^ ReadReg(t, op.rs2));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kAddI:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) + static_cast<std::uint64_t>(op.a));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kCmpEq:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) == ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kCmpNe:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) != ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kCmpLt:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) < ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kCmpLe:
      WriteReg(t, op.rd, ReadReg(t, op.rs1) <= ReadReg(t, op.rs2) ? 1 : 0);
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kJmp:
      t.pc = static_cast<ProgramCounter>(op.a);
      next = op.target_op;
      break;
    case exec::FusedKind::kBnz:
      if (ReadReg(t, op.rs1) != 0) {
        t.pc = static_cast<ProgramCounter>(op.a);
        next = op.target_op;
      } else {
        t.pc = op.next_pc;
      }
      break;
    case exec::FusedKind::kBz:
      if (ReadReg(t, op.rs1) == 0) {
        t.pc = static_cast<ProgramCounter>(op.a);
        next = op.target_op;
      } else {
        t.pc = op.next_pc;
      }
      break;
    case exec::FusedKind::kCall:
      t.sp -= 8;
      memory.Write(t.sp, 8, op.next_pc);
      t.pc = static_cast<ProgramCounter>(op.a);
      next = op.target_op;
      ++t.call_depth;
      break;
    case exec::FusedKind::kCallInd: {
      const Addr ea = (op.base == kNoReg ? 0 : ReadReg(t, op.base)) +
                      static_cast<std::uint64_t>(op.a);
      const ProgramCounter target = memory.Read(ea, 8);
      t.sp -= 8;
      memory.Write(t.sp, 8, op.next_pc);
      t.pc = target;
      ++t.call_depth;
      next = trans.OpIndexOfPc(target);
      break;
    }
    case exec::FusedKind::kRet:
      t.pc = memory.Read(t.sp, 8);
      t.sp += 8;
      if (t.call_depth > 0) {
        --t.call_depth;
      }
      next = trans.OpIndexOfPc(t.pc);
      break;
    case exec::FusedKind::kPush:
      t.sp -= 8;
      memory.Write(t.sp, 8, ReadReg(t, op.rs1));
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kPushM: {
      const Addr ea = (op.base == kNoReg ? 0 : ReadReg(t, op.base)) +
                      static_cast<std::uint64_t>(op.a);
      const std::uint64_t value = memory.Read(ea, op.size);
      t.sp -= 8;
      memory.Write(t.sp, 8, value);
      t.pc = op.next_pc;
      break;
    }
    case exec::FusedKind::kPop:
      WriteReg(t, op.rd, memory.Read(t.sp, 8));
      t.sp += 8;
      t.pc = op.next_pc;
      break;
    case exec::FusedKind::kBarrier:
      break;  // unreachable: callers test for barriers before executing
  }
  return next;
}

}  // namespace

std::uint64_t Machine::RunTranslated(Cycles max_cycles) {
  // Access-level sinks (the HB oracle, --trace-events=access) see only
  // shared-data accesses, so only ops with one leave for ExecuteOne; stack
  // traffic and register ops stay fused. The loop is instantiated per case
  // so runs without a sink carry no per-op sink test.
  return (trace_.hub().mask() & kAccessEventKinds) != 0 ? RunFused<true>(max_cycles)
                                                        : RunFused<false>(max_cycles);
}

template <bool kSink>
std::uint64_t Machine::RunFused(Cycles max_cycles) {
  const exec::BlockTranslation& trans = image_->blocks;
  const exec::TransOp* const ops = trans.ops();
  constexpr std::uint32_t kNoOp = exec::BlockTranslation::kNoOp;

  std::uint64_t steps = 0;
  while (live_count_ != 0) {
    // The stop point: the first (clock, id) pick the rounds must leave to
    // the generic loop. The cycle cap and the earliest timer deadline stop a
    // whole round (id 0); a core stops at its own turn.
    const Cycles deadline = EarliestDeadline();
    Cycles stop_round = std::min(max_cycles, deadline);
    CoreId stop_core = 0;
    bool stop_steps_idle = false;  // the stop is an idle step to run here
    const auto stop_at = [&](Cycles round, CoreId core, bool idle_step) {
      if (round < stop_round || (round == stop_round && core < stop_core)) {
        stop_round = round;
        stop_core = core;
        stop_steps_idle = idle_step;
      }
    };

    // Classify the cores. Busy cores whose thread can run an op become
    // lanes and stop at their quantum expiry; a busy core that cannot, or
    // an idle core that must really step, stops at its first turn.
    lanes_.clear();
    parked_.clear();
    Cycles busy_min = ~Cycles{0};  // lowest clock of any core with a thread
    Cycles first_round = ~Cycles{0};
    for (CoreId k = 0; k < cores_.size(); ++k) {
      Core& c = cores_[k];
      if (c.current == kInvalidThread) {
        if (!ready_.empty()) {
          stop_at(c.clock, k, false);  // a real scheduling decision: outer Reschedule
        } else if (hooks_ != nullptr && !hooks_->IdleSyncIsNoOp(k)) {
          stop_at(c.clock, k, true);  // a real sync point
        } else {
          parked_.push_back(k);
        }
        continue;
      }
      busy_min = std::min(busy_min, c.clock);
      ThreadContext& t = *threads_[c.current];
      const std::uint32_t cur = trans.OpIndexOfPc(t.pc);
      if (t.state != ThreadState::kRunnable || c.quantum_left == 0 || cur == kNoOp) {
        stop_at(c.clock, k, false);  // blocked, preempted or untranslated: outer loop
        continue;
      }
      stop_at(c.clock + c.quantum_left, k, false);
      first_round = std::min(first_round, c.clock);
      lanes_.push_back({.next = c.clock,
                        .limit = 0,
                        .thread = &t,
                        .regs = &c.debug_regs,
                        .cursor = cur,
                        .watch = kSink || (hooks_ != nullptr && c.debug_regs.any_armed()),
                        .core = k});
    }
    if (lanes_.empty()) {
      return steps;  // nothing to fuse; the generic loop takes the next pick
    }
    for (RoundLane& l : lanes_) {
      l.limit = stop_round + (l.core < stop_core ? 1 : 0);
    }

    // The rounds. At cycle `round` every lane whose clock is `round` runs
    // one op, in id order; a lane that is ahead joins when the rounds reach
    // its clock. Lane clocks are the `next` fields until the exit below.
    // Within the rounds nothing can enter the kernel, so the debug
    // registers, thread assignment, ready queue and timed waits are
    // constants. A lane leaves at the first op that is a barrier, that may
    // trap, or (while a sink listens) that touches shared data — that turn
    // becomes the stop point.
    //
    // Pinned to a 64-byte boundary: the rounds' speed depends on where the
    // linker places them (docs/performance.md, "Code alignment"). In a
    // Release build (GCC 12), moving this unchanged body from 16 to 32 mod
    // 64 slowed NSS/vanilla at two cores from 67-69 ms to about 75 ms; with
    // -falign-functions=64 every variant measured took 65-70 ms.
    const auto run_rounds = [&]() __attribute__((aligned(64))) {
      for (Cycles round = first_round;;) {
        // The lanes at `round` act in every round until one reaches its
        // limit or another lane joins; until then rounds are full and need
        // no per-turn clock test.
        joined_.clear();
        Cycles end = ~Cycles{0};
        for (RoundLane& l : lanes_) {
          if (l.next == round) {
            joined_.push_back(&l);
            end = std::min(end, l.limit);
          } else {
            end = std::min(end, l.next);
          }
        }
        // One turn; false when the op must leave fused code, which makes
        // this turn the stop point. Forced inline, like ExecFusedOp.
        const auto turn = [&](RoundLane& l) __attribute__((always_inline)) {
          const exec::TransOp& op = ops[l.cursor];
          if (op.kind == exec::FusedKind::kBarrier ||
              (l.watch && MustLeave<kSink>(op, *l.thread, *l.regs))) {
            stop_at(round, l.core, false);
            return false;
          }
          l.cursor = ExecFusedOp(ops, l.cursor, *l.thread, memory_, trans);
          if (l.cursor == kNoOp) {
            // A dynamic target left translated code: the lane's next turn
            // re-derives it from the PC in the outer loop.
            l.limit = round + 1;
            stop_at(round + 1, l.core, false);
            end = round + 1;
          }
          return true;
        };
        RoundLane* const* const first = joined_.data();
        RoundLane* const* const last = first + joined_.size();
        if (end <= round) {
          // The last round: some lane reaches its limit at its turn.
          for (RoundLane* const* p = first; p != last && round < (*p)->limit; ++p) {
            if (!turn(**p)) {
              return;
            }
            (*p)->next = round + 1;
          }
          return;
        }
        for (; round != end; ++round) {
          for (RoundLane* const* p = first; p != last; ++p) {
            if (!turn(**p)) {
              for (RoundLane* const* q = first; q != last; ++q) {
                (*q)->next = q < p ? round + 1 : round;
              }
              return;
            }
          }
        }
        for (RoundLane* const* p = first; p != last; ++p) {
          (*p)->next = round;
        }
      }
    };
    run_rounds();

    // Exit: batch the lanes' accounting (fused ops cannot ChargeExtra, so
    // each costs exactly one cycle), and track the last core to act before
    // the stop point — hooks fired from outside any instruction read it as
    // executing_core().
    Cycles last_round = 0;
    CoreId last_core = executing_core_;
    bool acted = false;
    const auto saw = [&](Cycles round, CoreId core) {
      if (!acted || round > last_round || (round == last_round && core > last_core)) {
        acted = true;
        last_round = round;
        last_core = core;
      }
    };
    for (const RoundLane& l : lanes_) {
      Core& c = cores_[l.core];
      const Cycles done = l.next - c.clock;
      if (done == 0) {
        continue;
      }
      c.clock = l.next;
      c.quantum_left -= done;
      l.thread->cpu_cycles += done;
      l.thread->instructions += done;
      steps += done;
      instructions_executed_ += done;
      saw(l.next - 1, l.core);
    }
    // Parked idle cores, in closed form. Each elided IdleCoreStep was a pure
    // clock jump to the lowest clock of a core with a thread (capped by the
    // deadline): a core below every busy clock jumps there once; from then
    // on some busy core always sits at the round or one past it, so the
    // parked core steps to round + 1 at each of its turns, like a lane. An
    // idle step moves executing_core() only when hooks are installed.
    for (const CoreId k : parked_) {
      Core& c = cores_[k];
      Cycles from = c.clock;
      if (from < busy_min && (from < stop_round || (from == stop_round && k < stop_core))) {
        from = std::min(deadline, busy_min);
        if (hooks_ != nullptr) {
          saw(c.clock, k);
        }
      }
      const Cycles to = std::max(from, stop_round + (k < stop_core ? 1 : 0));
      if (to > from && hooks_ != nullptr) {
        saw(to - 1, k);
      }
      c.clock = to;
    }
    executing_core_ = last_core;

    if (!stop_steps_idle) {
      return steps;  // the generic loop handles whatever ended the rounds
    }
    // An idle core whose kernel entry is a real sync point: step it as the
    // generic loop would at this pick, then re-derive the rounds.
    now_ = cores_[stop_core].clock;
    if (IdleCoreStep(stop_core) == IdleOutcome::kDeadlock) {
      return steps;  // no state was changed; the outer loop re-derives it
    }
  }
  return steps;
}

}  // namespace kivati
