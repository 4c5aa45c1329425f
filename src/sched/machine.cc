#include "sched/machine.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace kivati {

const char* ToString(ThreadState state) {
  switch (state) {
    case ThreadState::kRunnable: return "runnable";
    case ThreadState::kSleeping: return "sleeping";
    case ThreadState::kSuspended: return "suspended";
    case ThreadState::kBlockedSync: return "blocked-sync";
    case ThreadState::kJoining: return "joining";
    case ThreadState::kDone: return "done";
  }
  return "?";
}

std::shared_ptr<const ProgramImage> MakeProgramImage(Program program) {
  return std::make_shared<const ProgramImage>(std::move(program));
}

Machine::Machine(Program program, MachineConfig config)
    : Machine(MakeProgramImage(std::move(program)), config) {}

Machine::Machine(std::shared_ptr<const ProgramImage> image, MachineConfig config)
    : image_(std::move(image)), config_(config), rng_(config.seed) {
  cores_.reserve(config_.num_cores);
  for (unsigned i = 0; i < config_.num_cores; ++i) {
    cores_.emplace_back(config_.watchpoints_per_core);
  }
}

ThreadId Machine::SpawnThread(ProgramCounter entry, std::uint64_t arg) {
  const ThreadId tid = static_cast<ThreadId>(threads_.size());
  auto t = std::make_unique<ThreadContext>();
  t->tid = tid;
  t->pc = entry;
  t->sp = AddressSpace::StackTop(tid);
  t->sp -= 8;
  memory_.Write(t->sp, 8, kThreadExitPc);
  t->regs[0] = arg;
  threads_.push_back(std::move(t));
  queued_.push_back(false);
  ++live_count_;
  MakeRunnable(tid);
  return tid;
}

ThreadId Machine::SpawnThreadByName(const std::string& function, std::uint64_t arg) {
  const FunctionInfo* info = image_->program.FindFunction(function);
  assert(info != nullptr && "SpawnThreadByName: unknown function");
  return SpawnThread(info->entry, arg);
}

void Machine::EnterTimedWait(Cycles wake_at) {
  ++timed_waiters_;
  if (earliest_valid_ && wake_at < earliest_deadline_) {
    earliest_deadline_ = wake_at;
  }
}

void Machine::LeaveTimedWait(Cycles wake_at) {
  assert(timed_waiters_ > 0);
  --timed_waiters_;
  if (timed_waiters_ == 0) {
    earliest_deadline_ = ~Cycles{0};
    earliest_valid_ = true;
  } else if (earliest_valid_ && wake_at <= earliest_deadline_) {
    // The cached minimum (or a tie of it) left; rescan lazily.
    earliest_valid_ = false;
  }
}

void Machine::SuspendThread(ThreadId tid, std::optional<Cycles> timeout_at) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kSuspended;
  t.has_deadline = timeout_at.has_value();
  if (timeout_at.has_value()) {
    t.wake_at = *timeout_at;
    EnterTimedWait(t.wake_at);
  }
}

void Machine::ResumeThread(ThreadId tid) {
  ThreadContext& t = thread(tid);
  if (t.state == ThreadState::kSuspended || t.state == ThreadState::kBlockedSync) {
    MakeRunnable(tid);
  }
}

void Machine::BlockThreadForSync(ThreadId tid) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kBlockedSync;
  t.has_deadline = false;
}

void Machine::UnblockSyncThread(ThreadId tid) {
  if (thread(tid).state == ThreadState::kBlockedSync) {
    MakeRunnable(tid);
  }
}

void Machine::SleepThread(ThreadId tid, Cycles duration) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kSleeping;
  t.wake_at = now_ + duration;
  t.has_deadline = true;
  EnterTimedWait(t.wake_at);
}

void Machine::CancelSleep(ThreadId tid) {
  if (thread(tid).state == ThreadState::kSleeping) {
    MakeRunnable(tid);
  }
}

void Machine::MakeRunnable(ThreadId tid) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  t.state = ThreadState::kRunnable;
  t.has_deadline = false;
  if (!queued_[tid] && !t.on_core) {
    queued_[tid] = true;
    ready_.push_back(tid);
  }
}

ThreadId Machine::PopRunnable() {
  // Purge entries that are no longer runnable (done, sleeping, suspended, or
  // already on a core) *before* drawing, so each random pick consumes
  // exactly one RNG draw and is a pure function of the runnable set. Drawing
  // over stale entries would make the schedule depend on dead queue contents
  // and burn a variable number of draws per logical decision — which is what
  // schedule recording (docs/replay.md) must rule out.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ThreadId tid = ready_[i];
    const ThreadContext& t = thread(tid);
    if (t.state == ThreadState::kRunnable && !t.on_core) {
      ready_[kept++] = tid;
    } else {
      queued_[tid] = false;
    }
  }
  ready_.resize(kept);
  if (ready_.empty()) {
    return kInvalidThread;
  }
  std::size_t pick = 0;
  if (config_.policy == SchedPolicy::kRandom && ready_.size() > 1) {
    if (sched_ctl_ != nullptr && sched_ctl_->replaying()) {
      pick = sched_ctl_->ReplayPick(ready_.data(), ready_.size(), instructions_executed_);
    } else {
      pick = rng_.NextBelow(ready_.size());
    }
    if (sched_ctl_ != nullptr) {
      sched_ctl_->CommitPick(ready_.size(), pick, ready_[pick], instructions_executed_);
    }
  }
  const ThreadId tid = ready_[pick];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(pick));
  queued_[tid] = false;
  return tid;
}

void Machine::WakeExpiredTimers() {
  for (auto& tp : threads_) {
    ThreadContext& t = *tp;
    if (t.state == ThreadState::kSleeping && t.wake_at <= now_) {
      MakeRunnable(t.tid);
    } else if (t.state == ThreadState::kSuspended && t.has_deadline && t.wake_at <= now_) {
      if (hooks_ != nullptr) {
        hooks_->OnSuspensionTimeout(t.tid);
      }
      MakeRunnable(t.tid);
    }
  }
}

Cycles Machine::EarliestDeadlineSlow() const {
  earliest_deadline_ = ScanEarliestDeadline();
  earliest_valid_ = true;
  return earliest_deadline_;
}

Cycles Machine::ScanEarliestDeadline() const {
  Cycles earliest = ~Cycles{0};
  for (const auto& tp : threads_) {
    if (IsTimedWait(*tp)) {
      earliest = std::min(earliest, tp->wake_at);
    }
  }
  return earliest;
}

void Machine::Reschedule(CoreId core, bool timer_interrupt) {
  Core& c = cores_[core];
  const ThreadId prev = c.current;
  if (timer_interrupt) {
    c.clock += config_.costs.context_switch;
    if (sched_ctl_ != nullptr) {
      sched_ctl_->OnPreemption(core, prev, instructions_executed_);
    }
    if (hooks_ != nullptr) {
      hooks_->OnKernelEntry(core);
    }
  }
  if (prev != kInvalidThread) {
    ThreadContext& p = thread(prev);
    p.on_core = false;
    c.current = kInvalidThread;
    if (p.state == ThreadState::kRunnable) {
      MakeRunnable(prev);
    }
  }
  const ThreadId next = PopRunnable();
  if (next == kInvalidThread) {
    return;
  }
  c.current = next;
  thread(next).on_core = true;
  c.quantum_left = config_.quantum;
  if (next != prev) {
    if (!timer_interrupt) {
      c.clock += config_.costs.context_switch;
    }
    if (trace_.hub().Wants(EventKind::kContextSwitch)) {
      trace_.hub().Emit({.when = now_,
                         .kind = EventKind::kContextSwitch,
                         .thread = next,
                         .slot = static_cast<std::int32_t>(core),
                         .detail = static_cast<std::uint32_t>(prev)});
    }
    if (hooks_ != nullptr) {
      hooks_->OnContextSwitch(core, prev, next);
    }
  }
}

Machine::IdleOutcome Machine::IdleCoreStep(CoreId core) {
  Core& c = cores_[core];
  // An idle core sits in the kernel idle loop, so it is trivially
  // "in the kernel": give the hooks their opportunistic sync point
  // (without this, threads blocked on cross-core watchpoint sync could
  // wait on a core that never re-enters the kernel). The sync may make
  // a thread runnable; pick it up immediately.
  if (hooks_ != nullptr) {
    executing_core_ = core;
    hooks_->OnKernelEntry(core);
    Reschedule(core, /*timer_interrupt=*/false);
    if (c.current != kInvalidThread) {
      return IdleOutcome::kProgress;
    }
  }
  // Idle: jump to the next time anything can happen on this core —
  // a timer wake, or another core's progress releasing a thread.
  Cycles next_time = EarliestDeadline();
  bool any_other_busy = false;
  for (CoreId i = 0; i < cores_.size(); ++i) {
    if (i != core && cores_[i].current != kInvalidThread) {
      any_other_busy = true;
      next_time = std::min(next_time, std::max(cores_[i].clock, c.clock + 1));
    }
  }
  if (next_time == ~Cycles{0}) {
    if (!any_other_busy && ready_.empty()) {
      return IdleOutcome::kDeadlock;
    }
    next_time = c.clock + 1;
  }
  c.clock = std::max(c.clock + 1, next_time);
  return IdleOutcome::kProgress;
}

RunResult Machine::Run(Cycles max_cycles) {
  RunResult result;
  while (true) {
    if (live_count_ == 0) {
      result.all_done = true;
      break;
    }
    const CoreId core = MinClockCore();
    Core& c = cores_[core];
    if (c.clock >= max_cycles) {
      result.hit_limit = true;
      break;
    }
    now_ = c.clock;
    // The scan in WakeExpiredTimers wakes nothing unless a deadline has
    // expired; the cached earliest deadline makes that check O(1).
    if (EarliestDeadline() <= now_) {
      WakeExpiredTimers();
    }

    const bool need_resched = c.current == kInvalidThread ||
                              thread(c.current).state != ThreadState::kRunnable ||
                              c.quantum_left == 0;
    if (need_resched) {
      const bool timer = c.current != kInvalidThread &&
                         thread(c.current).state == ThreadState::kRunnable &&
                         c.quantum_left == 0;
      Reschedule(core, timer);
    }
    if (c.current == kInvalidThread) {
      if (IdleCoreStep(core) == IdleOutcome::kDeadlock) {
        result.deadlocked = true;
        break;
      }
      continue;
    }
    // A pick that needed no Reschedule is the lowest (clock, id), so it is
    // the rounds' first turn. After a Reschedule the committed op runs in
    // ExecuteOne, as the oracle runs it: the context-switch charge may have
    // pushed this core's clock past another's.
    if (config_.block_translate && !need_resched) {
      const std::uint64_t fused = RunTranslated(max_cycles);
      if (fused != 0) {
        // The fused loop advanced the machine and stopped at a consistent
        // iteration boundary; re-derive everything at the top of the loop.
        fused_instructions_ += fused;
        continue;
      }
    }
    ExecuteOne(core);
  }
  Cycles end = 0;
  for (const auto& c : cores_) {
    end = std::max(end, c.clock);
  }
  result.cycles = end;
  result.instructions = instructions_executed_;
  if (result.deadlocked) {
    KIVATI_LOG(kWarning) << "machine deadlocked at cycle " << result.cycles << " with "
                         << live_count_ << " live threads";
  }
  return result;
}

void Machine::CollectAccesses(const ThreadContext& t, const Instruction& instr,
                              std::vector<MemAccess>& out,
                              const DebugRegisterFile* filter) const {
  out.clear();
  // old_value is captured after the switch below — for every access, or
  // only for accesses an armed watchpoint could match. Old values are
  // consumed solely when the kernel undoes the *trapped* access, so
  // skipping the capture for accesses that cannot trap is exact.
  switch (instr.op) {
    case Opcode::kLoad:
      out.push_back({EffectiveAddress(t, instr.mem), instr.size, AccessType::kRead});
      break;
    case Opcode::kStore:
      out.push_back({EffectiveAddress(t, instr.mem), instr.size, AccessType::kWrite});
      break;
    case Opcode::kMovM:
      out.push_back({EffectiveAddress(t, instr.mem2), instr.size, AccessType::kRead});
      out.push_back({EffectiveAddress(t, instr.mem), instr.size, AccessType::kWrite});
      break;
    case Opcode::kXchg: {
      const Addr ea = EffectiveAddress(t, instr.mem);
      out.push_back({ea, instr.size, AccessType::kRead});
      out.push_back({ea, instr.size, AccessType::kWrite});
      break;
    }
    case Opcode::kPush:
      out.push_back({t.sp - 8, 8, AccessType::kWrite});
      break;
    case Opcode::kPushM:
      out.push_back({EffectiveAddress(t, instr.mem), instr.size, AccessType::kRead});
      out.push_back({t.sp - 8, 8, AccessType::kWrite});
      break;
    case Opcode::kPop:
      out.push_back({t.sp, 8, AccessType::kRead});
      break;
    case Opcode::kCall:
      out.push_back({t.sp - 8, 8, AccessType::kWrite});
      break;
    case Opcode::kCallInd:
      out.push_back({EffectiveAddress(t, instr.mem), 8, AccessType::kRead});
      out.push_back({t.sp - 8, 8, AccessType::kWrite});
      break;
    case Opcode::kRet:
      out.push_back({t.sp, 8, AccessType::kRead});
      break;
    case Opcode::kRepMovs: {
      // Every word of the repetition is an access; as on pre-Pentium-4
      // hardware, the trap for any of them is only delivered after the
      // whole instruction (paper §3.5), which is what trap-after delivery
      // of the instruction's access list models.
      const std::uint64_t count = ReadReg(t, instr.rd);
      const Addr src = ReadReg(t, instr.rs1);
      const Addr dst = ReadReg(t, instr.rs2);
      for (std::uint64_t i = 0; i < count; ++i) {
        out.push_back({src + 8 * i, 8, AccessType::kRead});
        out.push_back({dst + 8 * i, 8, AccessType::kWrite});
      }
      break;
    }
    default:
      break;
  }
  for (MemAccess& access : out) {
    if (filter == nullptr || filter->MayMatch(access.addr, access.size)) {
      access.old_value = memory_.Read(access.addr, access.size);
    }
  }
}

void Machine::ApplySemantics(CoreId core, ThreadContext& t, const Instruction& instr,
                             unsigned length) {
  const ProgramCounter next_pc = t.pc + length;
  switch (instr.op) {
    case Opcode::kNop:
      t.pc = next_pc;
      break;
    case Opcode::kHalt:
      ExitThread(t.tid, 0);
      break;
    case Opcode::kLoadImm:
      WriteReg(t, instr.rd, static_cast<std::uint64_t>(instr.imm));
      t.pc = next_pc;
      break;
    case Opcode::kMov:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1));
      t.pc = next_pc;
      break;
    case Opcode::kLoad: {
      const Addr ea = EffectiveAddress(t, instr.mem);
      WriteReg(t, instr.rd, memory_.Read(ea, instr.size));
      t.pc = next_pc;
      break;
    }
    case Opcode::kStore: {
      const Addr ea = EffectiveAddress(t, instr.mem);
      memory_.Write(ea, instr.size, ReadReg(t, instr.rs1));
      t.pc = next_pc;
      break;
    }
    case Opcode::kMovM: {
      const Addr src = EffectiveAddress(t, instr.mem2);
      const Addr dst = EffectiveAddress(t, instr.mem);
      memory_.Write(dst, instr.size, memory_.Read(src, instr.size));
      t.pc = next_pc;
      break;
    }
    case Opcode::kXchg: {
      const Addr ea = EffectiveAddress(t, instr.mem);
      const std::uint64_t old = memory_.Read(ea, instr.size);
      memory_.Write(ea, instr.size, ReadReg(t, instr.rs1));
      WriteReg(t, instr.rd, old);
      t.pc = next_pc;
      break;
    }
    case Opcode::kAdd:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) + ReadReg(t, instr.rs2));
      t.pc = next_pc;
      break;
    case Opcode::kSub:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) - ReadReg(t, instr.rs2));
      t.pc = next_pc;
      break;
    case Opcode::kMul:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) * ReadReg(t, instr.rs2));
      t.pc = next_pc;
      break;
    case Opcode::kDiv: {
      const std::uint64_t divisor = ReadReg(t, instr.rs2);
      WriteReg(t, instr.rd, divisor == 0 ? 0 : ReadReg(t, instr.rs1) / divisor);
      t.pc = next_pc;
      break;
    }
    case Opcode::kMod: {
      const std::uint64_t divisor = ReadReg(t, instr.rs2);
      WriteReg(t, instr.rd, divisor == 0 ? 0 : ReadReg(t, instr.rs1) % divisor);
      t.pc = next_pc;
      break;
    }
    case Opcode::kAnd:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) & ReadReg(t, instr.rs2));
      t.pc = next_pc;
      break;
    case Opcode::kOr:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) | ReadReg(t, instr.rs2));
      t.pc = next_pc;
      break;
    case Opcode::kXor:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) ^ ReadReg(t, instr.rs2));
      t.pc = next_pc;
      break;
    case Opcode::kAddI:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) + static_cast<std::uint64_t>(instr.imm));
      t.pc = next_pc;
      break;
    case Opcode::kCmpEq:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) == ReadReg(t, instr.rs2) ? 1 : 0);
      t.pc = next_pc;
      break;
    case Opcode::kCmpNe:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) != ReadReg(t, instr.rs2) ? 1 : 0);
      t.pc = next_pc;
      break;
    case Opcode::kCmpLt:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) < ReadReg(t, instr.rs2) ? 1 : 0);
      t.pc = next_pc;
      break;
    case Opcode::kCmpLe:
      WriteReg(t, instr.rd, ReadReg(t, instr.rs1) <= ReadReg(t, instr.rs2) ? 1 : 0);
      t.pc = next_pc;
      break;
    case Opcode::kJmp:
      t.pc = static_cast<ProgramCounter>(instr.target);
      break;
    case Opcode::kBnz:
      t.pc = ReadReg(t, instr.rs1) != 0 ? static_cast<ProgramCounter>(instr.target) : next_pc;
      break;
    case Opcode::kBz:
      t.pc = ReadReg(t, instr.rs1) == 0 ? static_cast<ProgramCounter>(instr.target) : next_pc;
      break;
    case Opcode::kCall:
      t.sp -= 8;
      memory_.Write(t.sp, 8, next_pc);
      t.pc = static_cast<ProgramCounter>(instr.target);
      ++t.call_depth;
      break;
    case Opcode::kCallInd: {
      const Addr ea = EffectiveAddress(t, instr.mem);
      const ProgramCounter target = memory_.Read(ea, 8);
      t.sp -= 8;
      memory_.Write(t.sp, 8, next_pc);
      t.pc = target;
      ++t.call_depth;
      break;
    }
    case Opcode::kRet:
      t.pc = memory_.Read(t.sp, 8);
      t.sp += 8;
      if (t.call_depth > 0) {
        --t.call_depth;
      }
      break;
    case Opcode::kPush:
      t.sp -= 8;
      memory_.Write(t.sp, 8, ReadReg(t, instr.rs1));
      t.pc = next_pc;
      break;
    case Opcode::kPushM: {
      const Addr ea = EffectiveAddress(t, instr.mem);
      const std::uint64_t value = memory_.Read(ea, instr.size);
      t.sp -= 8;
      memory_.Write(t.sp, 8, value);
      t.pc = next_pc;
      break;
    }
    case Opcode::kPop:
      WriteReg(t, instr.rd, memory_.Read(t.sp, 8));
      t.sp += 8;
      t.pc = next_pc;
      break;
    case Opcode::kRepMovs: {
      const std::uint64_t count = ReadReg(t, instr.rd);
      const Addr src = ReadReg(t, instr.rs1);
      const Addr dst = ReadReg(t, instr.rs2);
      for (std::uint64_t i = 0; i < count; ++i) {
        memory_.Write(dst + 8 * i, 8, memory_.Read(src + 8 * i, 8));
      }
      t.pc = next_pc;
      break;
    }
    case Opcode::kSyscall:
      t.pc = next_pc;
      DoSyscall(core, t, instr);
      break;
    case Opcode::kABegin:
      t.pc = next_pc;
      if (hooks_ != nullptr) {
        hooks_->OnBeginAtomic(t.tid, instr, EffectiveAddress(t, instr.mem));
      }
      break;
    case Opcode::kAEnd:
      t.pc = next_pc;
      if (hooks_ != nullptr) {
        hooks_->OnEndAtomic(t.tid, instr);
      }
      break;
    case Opcode::kAClear:
      t.pc = next_pc;
      if (hooks_ != nullptr) {
        hooks_->OnClearAr(t.tid, t.call_depth);
      }
      break;
  }
}

void Machine::DoSyscall(CoreId core, ThreadContext& t, const Instruction& instr) {
  ChargeExtra(config_.costs.kernel_crossing);
  if (hooks_ != nullptr) {
    hooks_->OnKernelEntry(core);
  }
  switch (static_cast<Syscall>(instr.imm)) {
    case Syscall::kExit:
      ExitThread(t.tid, t.regs[0]);
      break;
    case Syscall::kSpawn: {
      const ThreadId child = SpawnThread(t.regs[0], t.regs[1]);
      t.regs[0] = child;
      if (trace_.hub().Wants(EventKind::kThreadSpawn)) {
        trace_.hub().Emit({.when = now_,
                           .kind = EventKind::kThreadSpawn,
                           .thread = t.tid,
                           .pc = current_instruction_pc_,
                           .detail = static_cast<std::uint32_t>(child)});
      }
      break;
    }
    case Syscall::kJoin: {
      const ThreadId target = static_cast<ThreadId>(t.regs[0]);
      if (target < threads_.size() && thread(target).state != ThreadState::kDone) {
        t.state = ThreadState::kJoining;
        t.join_target = target;
      } else if (target < threads_.size() && trace_.hub().Wants(EventKind::kThreadJoin)) {
        // Target already exited: the join completes immediately.
        trace_.hub().Emit({.when = now_,
                           .kind = EventKind::kThreadJoin,
                           .thread = t.tid,
                           .detail = static_cast<std::uint32_t>(target)});
      }
      break;
    }
    case Syscall::kYield:
      // Force a reschedule at the top of the loop.
      cores_[core].quantum_left = 0;
      break;
    case Syscall::kSleep:
    case Syscall::kIo:
      SleepThread(t.tid, t.regs[0]);
      break;
    case Syscall::kMark:
      trace_.AddMark(MarkEvent{now_, t.tid, static_cast<std::int64_t>(t.regs[0]), t.regs[1]});
      break;
    case Syscall::kNow:
      t.regs[0] = now_;
      break;
  }
}

void Machine::ExitThread(ThreadId tid, std::uint64_t status) {
  ThreadContext& t = thread(tid);
  if (IsTimedWait(t)) {
    LeaveTimedWait(t.wake_at);
  }
  assert(live_count_ > 0);
  --live_count_;
  t.state = ThreadState::kDone;
  t.exit_status = status;
  if (hooks_ != nullptr) {
    hooks_->OnThreadExit(tid);
  }
  for (auto& other : threads_) {
    if (other->state == ThreadState::kJoining && other->join_target == tid) {
      if (trace_.hub().Wants(EventKind::kThreadJoin)) {
        trace_.hub().Emit({.when = now_,
                           .kind = EventKind::kThreadJoin,
                           .thread = other->tid,
                           .detail = static_cast<std::uint32_t>(tid)});
      }
      MakeRunnable(other->tid);
    }
  }
}

void Machine::EmitAccessEvents(const ThreadContext& t, const Instruction& instr) {
  const std::uint32_t mask = trace_.hub().mask();
  // Lock acquisition compiles to an atomic read-modify-write (kXchg);
  // detectors key lock inference off this flag.
  const bool atomic_rmw = instr.op == Opcode::kXchg;
  for (const MemAccess& access : access_scratch_) {
    // Shared data only: the block engine's per-op bail (exec/block_exec.cc)
    // relies on this being the same filter.
    if (!IsSharedData(access.addr)) {
      continue;
    }
    const bool read = access.type == AccessType::kRead;
    const EventKind kind = read ? EventKind::kSharedRead : EventKind::kSharedWrite;
    if ((mask & kEventKindBit(kind)) == 0) {
      continue;
    }
    // Reads report the value observed (captured pre-execution); writes
    // report the committed value.
    trace_.hub().Emit({.when = now_,
                       .kind = kind,
                       .thread = t.tid,
                       .addr = access.addr,
                       .pc = current_instruction_pc_,
                       .detail = PackAccessDetail(access.size, atomic_rmw),
                       .value = read ? access.old_value
                                     : memory_.Read(access.addr, access.size)});
  }
}

void Machine::ExecuteOne(CoreId core) {
  Core& c = cores_[core];
  ThreadContext& t = thread(c.current);
  executing_core_ = core;
  now_ = c.clock;

  if (t.pc == kThreadExitPc) {
    ExitThread(t.tid, t.regs[0]);
    return;
  }
  const Program& program = image_->program;
  const auto index = program.IndexOfPc(t.pc);
  if (!index.has_value()) {
    KIVATI_LOG(kError) << "thread " << t.tid << " jumped to invalid pc 0x" << std::hex << t.pc;
    ExitThread(t.tid, ~std::uint64_t{0});
    return;
  }
  const Instruction& instr = program.At(*index);
  const unsigned length = program.LengthAt(*index);
  current_instruction_pc_ = t.pc;
  pending_extra_ = 0;
  Cycles cost = kUserInstructionCycles;

  // Access-level event sinks (the HB detector, --trace-events=access) need
  // the access list, with old values, of every instruction run here (under
  // the block engine, only those touching shared data); the cached hub mask
  // makes the check one load-and-test. When no armed watchpoint exists on
  // this core and no sink wants access events, nobody observes the access
  // list — skip building it (and the old-value memory reads) entirely. With
  // watchpoints armed, collect but let MayMatch skip old-value capture for
  // accesses outside the armed range hull (unless a sink needs the values
  // themselves).
  const bool access_events = (trace_.hub().mask() & kAccessEventKinds) != 0;
  const bool armed = hooks_ != nullptr && c.debug_regs.any_armed();
  if (armed || access_events) {
    CollectAccesses(t, instr, access_scratch_, access_events ? nullptr : &c.debug_regs);
  } else {
    access_scratch_.clear();
  }

  bool cancelled = false;
  if (config_.trap_delivery == TrapDelivery::kBefore && hooks_ != nullptr) {
    for (const MemAccess& access : access_scratch_) {
      const auto slot = c.debug_regs.Match(access.addr, access.size, access.type);
      if (slot.has_value()) {
        if (hooks_->OnWatchpointTrap(t.tid, core, *slot, access, t.pc)) {
          cancelled = true;
          break;
        }
      }
    }
  }

  if (!cancelled) {
    ApplySemantics(core, t, instr, length);
    ++t.instructions;
    ++instructions_executed_;
    if (access_events && !access_scratch_.empty()) {
      EmitAccessEvents(t, instr);
    }
    if (config_.trap_delivery == TrapDelivery::kAfter && hooks_ != nullptr) {
      for (const MemAccess& access : access_scratch_) {
        const auto slot = c.debug_regs.Match(access.addr, access.size, access.type);
        if (slot.has_value()) {
          // Trap-after: the access has committed; t.pc already points at the
          // architecturally next instruction (or the callee for calls).
          hooks_->OnWatchpointTrap(t.tid, core, *slot, access, t.pc);
          break;  // one trap delivered per instruction, as DR6 handling does
        }
      }
    }
  }

  cost += pending_extra_;
  pending_extra_ = 0;
  c.clock += cost;
  t.cpu_cycles += cost;
  c.quantum_left -= std::min(cost, c.quantum_left);
}

}  // namespace kivati
