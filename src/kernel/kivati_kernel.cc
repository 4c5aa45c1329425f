#include "kernel/kivati_kernel.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "common/rng.h"

namespace kivati {
namespace {

bool Overlaps(Addr a, unsigned a_size, Addr b, unsigned b_size) {
  return a < b + b_size && b < a + a_size;
}

// Serializability decision for one AR: the single-variable Figure-2 rule on
// the local pair, plus — for multi-variable regions — the same rule over the
// joint access mask (analysis/correlation.h): a remote write conflicts when
// any member read executed inside the region, a remote read when any member
// write did. ar.joint is kNone for single-variable ARs, making the extra
// clause free on the common path.
bool ArNonSerializable(const ArInstance& ar, AccessType remote, AccessType second) {
  if (NonSerializable(ar.first, remote, second)) {
    return true;
  }
  if (ar.joint == WatchType::kNone) {
    return false;
  }
  return remote == AccessType::kWrite ? Matches(ar.joint, AccessType::kRead)
                                      : Matches(ar.joint, AccessType::kWrite);
}

}  // namespace

KivatiKernel::KivatiKernel(Machine& machine, const KivatiConfig& config)
    : machine_(machine),
      config_(config),
      canonical_(machine.config().watchpoints_per_core),
      core_generation_(machine.num_cores(), 0),
      wps_(machine.config().watchpoints_per_core),
      pause_rng_(config.seed) {
  pause_cycles_ = machine_.costs().FromMs(config_.bugfinding_pause_ms);
}

std::size_t KivatiKernel::OpenArs(ThreadId tid) const {
  auto it = thread_ars_.find(tid);
  return it == thread_ars_.end() ? 0 : it->second.size();
}

std::optional<unsigned> KivatiKernel::FindLiveWatchpoint(Addr addr) const {
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    const WatchpointMeta& wp = wps_[slot];
    if (wp.hw == WatchpointMeta::HwState::kArmed && wp.live() && !wp.guard && wp.addr == addr) {
      return slot;
    }
  }
  return std::nullopt;
}

std::optional<unsigned> KivatiKernel::AcquireSlot() {
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    if (wps_[slot].hw == WatchpointMeta::HwState::kFree) {
      return slot;
    }
  }
  // Reclaim a lazily-freed register: its metadata is dead, only the hardware
  // is still armed; the caller re-arms it, making user and kernel state
  // consistent again (paper §3.4, optimization 2).
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    if (wps_[slot].hw == WatchpointMeta::HwState::kStaleArmed) {
      wps_[slot] = WatchpointMeta{};
      return slot;
    }
  }
  return std::nullopt;
}

void KivatiKernel::ArmSlot(unsigned slot, Addr addr, unsigned size, WatchType watch) {
  canonical_.Set(slot, addr, size, watch);
  for (CoreId core = 0; core < machine_.num_cores(); ++core) {
    WriteHardwareImage(core);
  }
  ApplyImageToCore(machine_.executing_core());
  if (events().Wants(EventKind::kWatchpointArm)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kWatchpointArm,
                   .addr = addr,
                   .slot = static_cast<std::int32_t>(slot),
                   .detail = static_cast<std::uint32_t>(watch)});
  }
}

void KivatiKernel::DisarmSlot(unsigned slot) {
  canonical_.Clear(slot);
  for (CoreId core = 0; core < machine_.num_cores(); ++core) {
    WriteHardwareImage(core);
  }
  ApplyImageToCore(machine_.executing_core());
  if (events().Wants(EventKind::kWatchpointDisarm)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kWatchpointDisarm,
                   .addr = wps_[slot].addr,
                   .slot = static_cast<std::int32_t>(slot)});
  }
}

void KivatiKernel::ApplyImageToCore(CoreId core) {
  WriteHardwareImage(core);
  core_generation_[core] = canonical_.generation();
}

void KivatiKernel::WriteHardwareImage(CoreId core) {
  DebugRegisterFile& regs = machine_.core_debug_regs(core);
  regs.CopyFrom(canonical_);
  if (config_.opt_local_disable) {
    const ThreadId current = machine_.current_thread_on(core);
    if (current != kInvalidThread) {
      for (unsigned slot = 0; slot < wps_.size(); ++slot) {
        const WatchpointMeta& wp = wps_[slot];
        if (wp.hw != WatchpointMeta::HwState::kArmed || wp.guard) {
          continue;
        }
        const bool owned = std::any_of(wp.ars.begin(), wp.ars.end(),
                                       [&](const ArInstance& ar) { return ar.owner == current; });
        if (owned) {
          regs.Clear(slot);
        }
      }
    }
  }
}

void KivatiKernel::CheckSyncWaiters() {
  if (sync_waiters_.empty()) {
    return;
  }
  std::uint64_t min_gen = ~std::uint64_t{0};
  for (const std::uint64_t gen : core_generation_) {
    min_gen = std::min(min_gen, gen);
  }
  auto it = sync_waiters_.begin();
  while (it != sync_waiters_.end()) {
    if (it->generation <= min_gen) {
      // Accesses from still-lagging cores may have slipped through while
      // the waiter was blocked (they are serializable-before the AR, which
      // has not made its first access yet) — but they invalidate the value
      // recorded at begin_atomic. Re-record from memory before the AR
      // effectively starts.
      for (WatchpointMeta& wp : wps_) {
        if (wp.hw != WatchpointMeta::HwState::kArmed || wp.guard) {
          continue;
        }
        const bool owned = std::any_of(wp.ars.begin(), wp.ars.end(), [&](const ArInstance& ar) {
          return ar.owner == it->tid;
        });
        if (owned) {
          RefreshRecordedValues(wp);
        }
      }
      machine_.UnblockSyncThread(it->tid);
      const Cycles stalled = ClampedElapsed(machine_.now(), it->blocked_at);
      stats().sync_stall.Record(stalled);
      if (events().Wants(EventKind::kSyncStall)) {
        events().Emit({.when = machine_.now(),
                       .kind = EventKind::kSyncStall,
                       .thread = it->tid,
                       .duration = stalled});
      }
      it = sync_waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

void KivatiKernel::BlockForSyncIfNeeded(ThreadId tid) {
  const std::uint64_t gen = canonical_.generation();
  bool lagging = false;
  for (const std::uint64_t core_gen : core_generation_) {
    if (core_gen < gen) {
      lagging = true;
      break;
    }
  }
  if (!lagging) {
    return;
  }
  machine_.BlockThreadForSync(tid);
  sync_waiters_.push_back(SyncWaiter{tid, gen, machine_.now()});
}

void KivatiKernel::SyncCore(CoreId core) {
  if (core_generation_[core] < canonical_.generation()) {
    ApplyImageToCore(core);
  }
  CheckSyncWaiters();
}

void KivatiKernel::HandleContextSwitch(CoreId core, ThreadId /*prev*/, ThreadId /*next*/) {
  if (config_.opt_local_disable) {
    // Swap per-thread suppression, the way Linux swaps debug registers.
    ApplyImageToCore(core);
  }
}

WatchType KivatiKernel::RequiredWatch(const WatchpointMeta& wp) const {
  if (wp.guard) {
    return WatchType::kReadWrite;
  }
  WatchType watch = WatchType::kNone;
  for (const ArInstance& ar : wp.ars) {
    watch = Union(watch, ar.remote_watch);
    if (ar.pending_write_record) {
      // The first local write has not happened yet; the watchpoint must
      // also trap on writes so the kernel can record the value to restore.
      watch = Union(watch, WatchType::kWrite);
    }
  }
  return watch;
}

void KivatiKernel::RecordValueAtBegin(WatchpointMeta& wp, ArInstance& ar, Addr ea) {
  if (machine_.config().trap_delivery == TrapDelivery::kBefore) {
    // Trap-before hardware never commits the remote access, so no undo (and
    // hence no value recording) is ever needed.
    return;
  }
  const std::uint64_t value = machine_.memory().Read(ea, wp.size);
  ar.recorded_value = value;
  if (ar.first == AccessType::kWrite) {
    if (config_.opt_local_disable) {
      // The owner's watchpoint is suppressed, so the local write will not
      // trap. Initialize the shared-page slot with the pre-write value; the
      // compiler-inserted replica store updates it right after the write.
      machine_.memory().Write(SharedPageSlot(ar.id), 8, value);
    } else {
      // Watch for the local write itself and record its value at trap time.
      ar.pending_write_record = true;
    }
  } else if (config_.opt_local_disable) {
    machine_.memory().Write(SharedPageSlot(ar.id), 8, value);
  }
}

bool KivatiKernel::MaybePauseForBugFinding(ThreadId tid) {
  if (config_.mode != KivatiMode::kBugFinding) {
    return false;
  }
  // The pause sample is a nondeterministic scheduling decision: route it
  // through the schedule controller when one is installed (docs/replay.md).
  ScheduleController* sched = machine_.schedule_controller();
  bool pause;
  if (sched != nullptr && sched->replaying()) {
    pause = sched->ReplayPause(tid, machine_.instructions_executed());
  } else {
    pause = pause_rng_.NextBool(config_.bugfinding_pause_probability);
    if (sched != nullptr) {
      sched->RecordPause(tid, pause, machine_.instructions_executed());
    }
  }
  if (!pause) {
    return false;
  }
  ++stats().bugfinding_pauses;
  paused_threads_.insert(tid);
  machine_.SleepThread(tid, pause_cycles_);
  return true;
}

void KivatiKernel::EndPausesOnWatchpoint(const WatchpointMeta& wp) {
  // A remote access has been caught: the pause has served its purpose, and
  // keeping the local thread asleep past the remote's suspension timeout
  // would turn a preventable violation into an unprevented one. Wake every
  // paused owner so the AR can complete within the timeout.
  if (paused_threads_.empty()) {
    return;
  }
  for (const ArInstance& ar : wp.ars) {
    if (paused_threads_.erase(ar.owner) != 0) {
      machine_.CancelSleep(ar.owner);
    }
  }
}

PathTaken KivatiKernel::BeginAtomic(ThreadId tid, const Instruction& instr, Addr ea,
                                    bool fast_ok) {
  ++stats().ars_entered;

  // 1. Is the variable being watched by another thread's AR? Then this
  //    thread is remote with respect to that AR: delay its own first access
  //    by suspending it here and re-executing the begin_atomic on wake.
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    WatchpointMeta& wp = wps_[slot];
    if (wp.hw != WatchpointMeta::HwState::kArmed || !wp.live() || wp.guard) {
      continue;
    }
    if (!Overlaps(wp.addr, wp.size, ea, instr.size)) {
      continue;
    }
    const bool foreign = std::any_of(wp.ars.begin(), wp.ars.end(),
                                     [&](const ArInstance& ar) { return ar.owner != tid; });
    if (foreign) {
      if (timeout_immune_.erase(tid) != 0) {
        // A timeout-released begin must proceed: the region goes
        // unmonitored rather than re-suspending.
        ++stats().ars_timeout_bypassed;
        return PathTaken::kKernel;
      }
      SyncCore(machine_.executing_core());
      machine_.SetThreadPc(tid, machine_.current_instruction_pc());
      SuspendRemote(tid, slot, SuspendReason::kBeginAtomic);
      return PathTaken::kKernel;
    }
  }

  ArInstance ar;
  ar.id = instr.ar_id;
  ar.owner = tid;
  ar.depth = machine_.thread(tid).call_depth;
  ar.first = instr.local_first;
  ar.remote_watch = instr.watch;
  ar.joint = instr.joint;
  ar.begin_pc = machine_.current_instruction_pc();
  ar.begin_at = machine_.now();

  // 2. A live watchpoint of this thread already covers the address: add the
  //    AR to it (Figure 4's overlapping-AR case).
  if (const auto found = FindLiveWatchpoint(ea); found.has_value()) {
    const unsigned slot = *found;
    WatchpointMeta& wp = wps_[slot];
    for (const ArInstance& existing : wp.ars) {
      if (existing.owner != tid) {
        KIVATI_LOG(kError) << "cross-owner AR share: t" << tid << " joining wp of t"
                           << existing.owner << " on 0x" << std::hex << ea << std::dec
                           << " at " << machine_.now();
      }
    }
    wp.ars.push_back(ar);
    RecordValueAtBegin(wp, wp.ars.back(), ea);
    thread_ars_[tid].push_back(ThreadAr{ar.id, slot, ar.depth});

    const WatchType required = RequiredWatch(wp);
    const bool hw_change = required != wp.watch || instr.size > wp.size;
    if (!hw_change) {
      if (fast_ok) {
        MaybePauseForBugFinding(tid);
        return PathTaken::kUserFast;
      }
      SyncCore(machine_.executing_core());
      MaybePauseForBugFinding(tid);
      return PathTaken::kKernel;
    }
    SyncCore(machine_.executing_core());
    wp.size = std::max(wp.size, instr.size);
    wp.watch = required;
    ArmSlot(slot, wp.addr, wp.size, wp.watch);
    // A bug-finding pause doubles as the cross-core sync wait: it is far
    // longer than the opportunistic propagation window.
    if (!MaybePauseForBugFinding(tid)) {
      BlockForSyncIfNeeded(tid);
    }
    return PathTaken::kKernel;
  }

  // 3. A lazily-freed watchpoint still armed for this address with a
  //    sufficient configuration can be revived without touching hardware —
  //    the crossing the paper's optimization 2 saves.
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    WatchpointMeta& wp = wps_[slot];
    if (wp.hw != WatchpointMeta::HwState::kStaleArmed || wp.addr != ea) {
      continue;
    }
    const bool need_write_watch = ar.first == AccessType::kWrite && !config_.opt_local_disable &&
                                  machine_.config().trap_delivery == TrapDelivery::kAfter;
    WatchType required = ar.remote_watch;
    if (need_write_watch) {
      required = Union(required, WatchType::kWrite);
    }
    const bool sufficient =
        wp.size >= instr.size && Union(wp.watch, required) == wp.watch;
    if (!sufficient) {
      continue;
    }
    wp.hw = WatchpointMeta::HwState::kArmed;
    wp.ars.push_back(ar);
    RecordValueAtBegin(wp, wp.ars.back(), ea);
    thread_ars_[tid].push_back(ThreadAr{ar.id, slot, ar.depth});
    if (fast_ok) {
      MaybePauseForBugFinding(tid);
      return PathTaken::kUserFast;
    }
    SyncCore(machine_.executing_core());
    MaybePauseForBugFinding(tid);
    return PathTaken::kKernel;
  }

  // 4. Arm a fresh watchpoint.
  const auto slot = AcquireSlot();
  if (!slot.has_value()) {
    // Every register is in use: the AR goes unmonitored (paper §3.5). With
    // the fast path the user-space replica discovers this without crossing.
    ++stats().ars_missed;
    return fast_ok ? PathTaken::kUserFast : PathTaken::kKernel;
  }
  SyncCore(machine_.executing_core());
  for (unsigned other = 0; other < wps_.size(); ++other) {
    const WatchpointMeta& o = wps_[other];
    if (other != *slot && o.hw == WatchpointMeta::HwState::kArmed && o.live() && !o.guard &&
        Overlaps(o.addr, o.size, ea, instr.size)) {
      KIVATI_LOG(kError) << "duplicate wp arm: t" << tid << " arming 0x" << std::hex << ea
                         << std::dec << " while slot " << other << " live (owner t"
                         << (o.ars.empty() ? 999 : o.ars[0].owner) << ") at " << machine_.now();
    }
  }
  WatchpointMeta& wp = wps_[*slot];
  wp = WatchpointMeta{};
  wp.hw = WatchpointMeta::HwState::kArmed;
  wp.addr = ea;
  wp.size = instr.size;
  wp.ars.push_back(ar);
  RecordValueAtBegin(wp, wp.ars.back(), ea);
  wp.watch = RequiredWatch(wp);
  thread_ars_[tid].push_back(ThreadAr{ar.id, *slot, ar.depth});
  ArmSlot(*slot, wp.addr, wp.size, wp.watch);
  if (!MaybePauseForBugFinding(tid)) {
    BlockForSyncIfNeeded(tid);
  }
  return PathTaken::kKernel;
}

PathTaken KivatiKernel::EndAtomic(ThreadId tid, const Instruction& instr) {
  return EndAtomicImpl(tid, instr.ar_id, instr.local_second, /*from_clear=*/false);
}

PathTaken KivatiKernel::EndAtomicImpl(ThreadId tid, ArId ar_id, AccessType second,
                                      bool from_clear) {
  // Violations whose AR was torn down by a suspension timeout are still
  // evaluated when the end_atomic eventually executes, flagged unprevented.
  const auto pending = pending_ars_.find(Key(tid, ar_id));
  if (pending != pending_ars_.end()) {
    const PendingAr& p = pending->second;
    if (!from_clear) {
      for (const TriggerRecord& trigger : p.triggers) {
        if (ArNonSerializable(p.ar, trigger.type, second)) {
          LogViolation(p.ar, p.addr, p.size, trigger, second, machine_.current_instruction_pc());
        }
      }
    }
    pending_ars_.erase(pending);
  }

  // Locate the AR.
  unsigned slot = 0;
  std::size_t index = 0;
  bool found = false;
  for (slot = 0; slot < wps_.size() && !found; ++slot) {
    WatchpointMeta& wp = wps_[slot];
    if (wp.hw != WatchpointMeta::HwState::kArmed || wp.guard) {
      continue;
    }
    for (index = 0; index < wp.ars.size(); ++index) {
      if (wp.ars[index].id == ar_id && wp.ars[index].owner == tid) {
        found = true;
        break;
      }
    }
    if (found) {
      break;
    }
  }
  if (!found) {
    // No matching begin_atomic (missed, cleared, or whitelist races): the
    // end_atomic has no effect. User-space metadata answers this without a
    // crossing when the fast path is on.
    return PathTaken::kUserFast;
  }

  WatchpointMeta& wp = wps_[slot];
  const ArInstance ar = wp.ars[index];
  stats().ar_duration.Record(ClampedElapsed(machine_.now(), ar.begin_at));
  if (!from_clear) {
    EvaluateViolations(wp, ar, second, machine_.current_instruction_pc());
  }
  wp.ars.erase(wp.ars.begin() + static_cast<std::ptrdiff_t>(index));
  RemoveArFromThreadTable(tid, ar_id);

  bool needed_kernel = false;
  if (wp.ars.empty()) {
    wp.triggers.clear();
    if (!wp.suspended.empty()) {
      SyncCore(machine_.executing_core());
      WakeAllSuspended(wp);
      needed_kernel = true;
    }
    if (config_.opt_lazy_free) {
      // Leave the hardware armed; mark the metadata dead. A later trap or
      // begin_atomic reconciles (paper §3.4, optimization 2).
      wp.hw = WatchpointMeta::HwState::kStaleArmed;
    } else {
      SyncCore(machine_.executing_core());
      DisarmSlot(slot);
      wp.hw = WatchpointMeta::HwState::kFree;
      needed_kernel = true;
    }
  } else {
    const WatchType required = RequiredWatch(wp);
    if (required != wp.watch) {
      if (config_.opt_lazy_free) {
        // Leave the aggressive setting; extra traps are filtered on arrival.
      } else {
        SyncCore(machine_.executing_core());
        wp.watch = required;
        ArmSlot(slot, wp.addr, wp.size, wp.watch);
        needed_kernel = true;
      }
    }
  }
  return needed_kernel ? PathTaken::kKernel : PathTaken::kUserFast;
}

PathTaken KivatiKernel::ClearAr(ThreadId tid, std::uint32_t depth) {
  auto it = thread_ars_.find(tid);
  if (it == thread_ars_.end()) {
    return PathTaken::kUserFast;
  }
  std::vector<ArId> to_clear;
  for (const ThreadAr& entry : it->second) {
    if (entry.depth == depth) {
      to_clear.push_back(entry.ar);
    }
  }
  // Drop timed-out-AR residue from frames exiting without their end_atomic.
  const std::size_t stale = std::erase_if(pending_ars_, [&](const auto& entry) {
    return entry.second.ar.owner == tid && entry.second.ar.depth == depth;
  });
  if (to_clear.empty()) {
    return stale == 0 ? PathTaken::kUserFast : PathTaken::kKernel;
  }
  PathTaken path = PathTaken::kUserFast;
  for (const ArId ar : to_clear) {
    // clear_ar terminates the AR without violation evaluation (§3.2).
    if (EndAtomicImpl(tid, ar, AccessType::kRead, /*from_clear=*/true) == PathTaken::kKernel) {
      path = PathTaken::kKernel;
    }
  }
  return path;
}

std::optional<ProgramCounter> KivatiKernel::ResolveAccessPc(ThreadId tid,
                                                            ProgramCounter trap_pc) const {
  const RollbackTable& table = machine_.rollback_table();
  if (const auto prev = table.PrevAccessingPc(trap_pc); prev.has_value()) {
    return prev;
  }
  if (table.IsFunctionEntry(trap_pc)) {
    // The trapping instruction was a call: the PC now points at the callee's
    // first instruction. Recover the call site from the return address that
    // the call pushed (paper §3.3).
    const ThreadContext& t = machine_.thread(tid);
    const ProgramCounter ret = machine_.memory().Read(t.sp, 8);
    return table.PrevAccessingPc(ret);
  }
  return std::nullopt;
}

bool KivatiKernel::UndoRemoteAccess(ThreadId tid, WatchpointMeta& wp, const MemAccess& access,
                                    ProgramCounter trap_pc) {
  const auto ipc = ResolveAccessPc(tid, trap_pc);
  if (!ipc.has_value()) {
    ++stats().unreorderable_accesses;
    return false;
  }
  const auto index = machine_.program().IndexOfPc(*ipc);
  if (!index.has_value()) {
    ++stats().unreorderable_accesses;
    return false;
  }
  // "Disassemble the remote access instruction" (§3.3) to classify it.
  const Instruction& instr = machine_.program().At(*index);
  if (instr.op == Opcode::kRepMovs) {
    // §3.5: REP MOVS traps are reported only after the repetition, so the
    // access cannot be accurately undone and reordered; log and continue.
    ++stats().unreorderable_accesses;
    return false;
  }
  ThreadContext& t = machine_.thread(tid);

  // Remote reads whose destination is another memory location leak a mid-AR
  // value; guard the destination with a spare watchpoint. If none is free,
  // the access cannot be reordered and the remote thread continues.
  if (access.type == AccessType::kRead) {
    std::optional<Addr> leak;
    if (instr.op == Opcode::kMovM) {
      const std::uint64_t base = instr.mem.base == kNoReg ? 0 : ReadReg(t, instr.mem.base);
      leak = base + static_cast<std::uint64_t>(instr.mem.offset);
    } else if (instr.op == Opcode::kPushM) {
      leak = t.sp;  // the slot the push wrote (sp already decremented)
    }
    if (leak.has_value()) {
      const auto guard_slot = AcquireSlot();
      if (!guard_slot.has_value()) {
        ++stats().unreorderable_accesses;
        return false;
      }
      WatchpointMeta& guard = wps_[*guard_slot];
      guard = WatchpointMeta{};
      guard.hw = WatchpointMeta::HwState::kArmed;
      guard.guard = true;
      guard.guard_for = tid;
      guard.addr = *leak;
      guard.size = 8;
      guard.watch = WatchType::kReadWrite;
      ArmSlot(*guard_slot, guard.addr, guard.size, guard.watch);
      if (events().Wants(EventKind::kGuardArm)) {
        events().Emit({.when = machine_.now(),
                       .kind = EventKind::kGuardArm,
                       .thread = tid,
                       .addr = guard.addr,
                       .slot = static_cast<std::int32_t>(*guard_slot)});
      }
    }
  }

  // Undo the effect on the shared variable: a remote write (or exchange) is
  // rolled back to the value the location held before the access. (The
  // paper restores the value recorded after the first local access; that
  // recording is still maintained above for fidelity of cost, but restoring
  // from it resurrects stale state whenever any access committed unseen or
  // a timeout tore down an AR mid-flight — see DESIGN.md deviations.)
  if (access.type == AccessType::kWrite || instr.op == Opcode::kXchg) {
    KIVATI_LOG(kDebug) << "restore: 0x" << std::hex << access.addr << std::dec << " <- "
                       << access.old_value << " (undoing t" << tid << ") at " << machine_.now();
    machine_.memory().Write(access.addr, access.size, access.old_value);
  }

  // Undo instruction-dependent side effects: stack pointer and call depth.
  const std::int64_t delta = StackDelta(instr.op);
  t.sp = t.sp - static_cast<std::uint64_t>(delta);
  if (instr.op == Opcode::kCall || instr.op == Opcode::kCallInd) {
    if (t.call_depth > 0) {
      --t.call_depth;
    }
  } else if (instr.op == Opcode::kRet) {
    ++t.call_depth;
  }

  // Move the PC back so the access re-executes after the ARs complete.
  machine_.SetThreadPc(tid, *ipc);
  KIVATI_LOG(kDebug) << "undo: t" << tid << " " << ToString(instr.op) << "@0x" << std::hex
                     << *ipc << " on 0x" << wp.addr << std::dec << " at " << machine_.now();
  if (events().Wants(EventKind::kUndo)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kUndo,
                   .thread = tid,
                   .addr = wp.addr,
                   .pc = *ipc,
                   .detail = static_cast<std::uint32_t>(access.type)});
  }
  return true;
}

void KivatiKernel::RefreshRecordedValues(WatchpointMeta& wp) {
  if (machine_.config().trap_delivery != TrapDelivery::kAfter || wp.ars.empty()) {
    return;
  }
  const std::uint64_t value = machine_.memory().Read(wp.addr, wp.size);
  for (ArInstance& ar : wp.ars) {
    ar.recorded_value = value;
    if (config_.opt_local_disable) {
      machine_.memory().Write(SharedPageSlot(ar.id), 8, value);
    }
  }
}

void KivatiKernel::SuspendRemote(ThreadId tid, unsigned slot, SuspendReason reason) {
  wps_[slot].suspended.push_back(SuspendedThread{tid, reason, machine_.now()});
  // Anchor the timeout at the first suspension of this particular access
  // (identified by the rolled-back PC): early wakeups followed by
  // re-suspension must not restart the clock.
  const ProgramCounter pc = machine_.thread(tid).pc;
  auto [it, inserted] = retry_anchor_.try_emplace(tid, RetryAnchor{pc, machine_.now()});
  if (!inserted && it->second.pc != pc) {
    it->second = RetryAnchor{pc, machine_.now()};
  }
  machine_.SuspendThread(
      tid, it->second.first_suspended + machine_.costs().FromMs(config_.suspension_timeout_ms));
  KIVATI_LOG(kDebug) << "suspend: t" << tid << " pc=0x" << std::hex << pc << std::dec
                     << " reason=" << static_cast<int>(reason) << " at " << machine_.now();
  ++stats().remote_suspensions;
  if (events().Wants(EventKind::kSuspend)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kSuspend,
                   .thread = tid,
                   .addr = wps_[slot].addr,
                   .pc = pc,
                   .slot = static_cast<std::int32_t>(slot),
                   .detail = static_cast<std::uint32_t>(reason)});
  }
}

bool KivatiKernel::HandleTrap(ThreadId tid, CoreId core, unsigned slot, const MemAccess& access,
                              ProgramCounter trap_pc) {
  SyncCore(core);
  WatchpointMeta& wp = wps_[slot];

  // Spurious trap from a lagging local register image.
  const bool meta_matches = wp.hw != WatchpointMeta::HwState::kFree &&
                            Overlaps(wp.addr, wp.size, access.addr, access.size) &&
                            Matches(wp.watch, access.type);
  if (!meta_matches) {
    return false;
  }

  if (wp.hw == WatchpointMeta::HwState::kStaleArmed) {
    // Lazily-freed watchpoint finally fired: disable it now, log nothing
    // (the AR it guarded has already terminated) — paper §3.4, opt. 2.
    DisarmSlot(slot);
    wp = WatchpointMeta{};
    return false;
  }

  if (events().Wants(EventKind::kTrap)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kTrap,
                   .thread = tid,
                   .addr = access.addr,
                   .pc = trap_pc,
                   .slot = static_cast<std::int32_t>(slot),
                   .detail = static_cast<std::uint32_t>(access.type)});
  }

  if (wp.guard) {
    if (tid == wp.guard_for) {
      if (access.type == AccessType::kWrite) {
        // The undone instruction re-executed and overwrote the leaked value;
        // the guard has served its purpose.
        EmitGuardRelease(wp, slot);
        DisarmSlot(slot);
        WakeAllSuspended(wp);
        wp = WatchpointMeta{};
      }
      return false;
    }
    if (access.type == AccessType::kWrite) {
      // A foreign write simply replaces the leaked value; allow it.
      return false;
    }
    // A foreign read would observe the leaked mid-AR value: hold the reader
    // until the guard is released.
    if (machine_.config().trap_delivery == TrapDelivery::kAfter) {
      const auto ipc = ResolveAccessPc(tid, trap_pc);
      if (!ipc.has_value()) {
        ++stats().unreorderable_accesses;
        return false;
      }
      ThreadContext& t = machine_.thread(tid);
      const auto index = machine_.program().IndexOfPc(*ipc);
      if (index.has_value()) {
        const Instruction& instr = machine_.program().At(*index);
        t.sp = t.sp - static_cast<std::uint64_t>(StackDelta(instr.op));
        if (instr.op == Opcode::kCall || instr.op == Opcode::kCallInd) {
          if (t.call_depth > 0) {
            --t.call_depth;
          }
        } else if (instr.op == Opcode::kRet) {
          ++t.call_depth;
        }
      }
      machine_.SetThreadPc(tid, *ipc);
    }
    SuspendRemote(tid, slot, SuspendReason::kGuard);
    return true;
  }

  // Local access by an AR owner on this watchpoint.
  const bool local = std::any_of(wp.ars.begin(), wp.ars.end(),
                                 [&](const ArInstance& ar) { return ar.owner == tid; });
  if (local) {
    if (machine_.config().trap_delivery == TrapDelivery::kAfter) {
      // Record the value after a local access; it is the rollback value for
      // undoing a subsequent remote write (paper §3.3). Every local trap
      // refreshes it: with trap-after delivery the whole instruction has
      // committed, so the *current* value is by definition the value after
      // the most recent local access. Recording on read traps too matters
      // for read-modify-write instructions (xchg), whose write would
      // otherwise go unrecorded — hardware delivers one trap per
      // instruction, and the read matches first.
      const std::uint64_t value = machine_.memory().Read(wp.addr, wp.size);
      KIVATI_LOG(kDebug) << "record: t" << tid << " value " << value << " on 0x" << std::hex
                         << wp.addr << std::dec << " at " << machine_.now();
      for (ArInstance& ar : wp.ars) {
        if (ar.owner == tid) {
          ar.recorded_value = value;
          ar.pending_write_record = false;
        }
      }
    }
    return false;
  }

  // Remote access during one or more ARs.
  TriggerRecord trigger;
  trigger.remote = tid;
  trigger.type = access.type;
  trigger.when = machine_.now();
  if (machine_.config().trap_delivery == TrapDelivery::kAfter) {
    trigger.remote_pc = ResolveAccessPc(tid, trap_pc).value_or(trap_pc);
  } else {
    trigger.remote_pc = trap_pc;
  }

  if (timeout_immune_.erase(tid) != 0) {
    KIVATI_LOG(kDebug) << "immune-commit: t" << tid << " addr=0x" << std::hex << access.addr
                       << std::dec << " at " << machine_.now();
    // A timeout-released access must commit.
    trigger.prevented = false;
    wp.triggers.push_back(trigger);
    RefreshRecordedValues(wp);
    retry_anchor_.erase(tid);
    return false;
  }

  if (machine_.config().trap_delivery == TrapDelivery::kBefore) {
    // The access has not committed: simply delay it.
    wp.triggers.push_back(trigger);
    SuspendRemote(tid, slot, SuspendReason::kTrap);
    EndPausesOnWatchpoint(wp);
    return true;
  }

  trigger.prevented = UndoRemoteAccess(tid, wp, access, trap_pc);
  wp.triggers.push_back(trigger);
  if (trigger.prevented) {
    SuspendRemote(tid, slot, SuspendReason::kTrap);
    EndPausesOnWatchpoint(wp);
  } else {
    // The access could not be reordered and stands: the rollback values
    // must follow it.
    RefreshRecordedValues(wp);
  }
  return false;
}

void KivatiKernel::EmitGuardRelease(const WatchpointMeta& wp, unsigned slot) {
  if (events().Wants(EventKind::kGuardRelease)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kGuardRelease,
                   .thread = wp.guard_for,
                   .addr = wp.addr,
                   .slot = static_cast<std::int32_t>(slot)});
  }
}

void KivatiKernel::WakeAllSuspended(WatchpointMeta& wp) {
  // Preferential wakeup: threads parked by watchpoint traps run before
  // threads parked at their own begin_atomic (paper §3.3).
  for (const SuspendedThread& s : wp.suspended) {
    if (s.reason == SuspendReason::kTrap || s.reason == SuspendReason::kGuard) {
      machine_.ResumeThread(s.tid);
    }
  }
  for (const SuspendedThread& s : wp.suspended) {
    if (s.reason == SuspendReason::kBeginAtomic) {
      machine_.ResumeThread(s.tid);
    }
  }
  for (const SuspendedThread& s : wp.suspended) {
    const Cycles latency = ClampedElapsed(machine_.now(), s.since);
    stats().suspension_latency.Record(latency);
    if (events().Wants(EventKind::kWake)) {
      events().Emit({.when = machine_.now(),
                     .kind = EventKind::kWake,
                     .thread = s.tid,
                     .detail = static_cast<std::uint32_t>(s.reason),
                     .duration = latency});
    }
  }
  wp.suspended.clear();
}

void KivatiKernel::HandleSuspensionTimeout(ThreadId tid) {
  KIVATI_LOG(kDebug) << "timeout: t" << tid << " pc=0x" << std::hex << machine_.thread(tid).pc
                     << std::dec << " at " << machine_.now();
  ++stats().suspension_timeouts;
  if (events().Wants(EventKind::kSuspensionTimeout)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kSuspensionTimeout,
                   .thread = tid,
                   .pc = machine_.thread(tid).pc});
  }
  // The paper resumes the thread "regardless of whether the AR has
  // completed or not": its pending access must actually complete, so its
  // next conflict is waved through (one shot).
  timeout_immune_.insert(tid);
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    WatchpointMeta& wp = wps_[slot];
    const bool member = std::any_of(wp.suspended.begin(), wp.suspended.end(),
                                    [&](const SuspendedThread& s) { return s.tid == tid; });
    if (!member) {
      continue;
    }
    if (wp.guard) {
      // Guard timed out: release everyone and drop the guard.
      EmitGuardRelease(wp, slot);
      DisarmSlot(slot);
      WakeAllSuspended(wp);
      wp = WatchpointMeta{};
      continue;
    }
    // The ARs using the timed-out watchpoint are torn down (§3.3). Their
    // triggers are kept so the eventual end_atomic can still report the
    // violation, flagged as not prevented (§2.2).
    for (const ArInstance& ar : wp.ars) {
      PendingAr pending{.ar = ar, .addr = wp.addr, .size = wp.size, .triggers = wp.triggers};
      for (TriggerRecord& t : pending.triggers) {
        t.prevented = false;
      }
      pending_ars_[Key(ar.owner, ar.id)] = std::move(pending);
      RemoveArFromThreadTable(ar.owner, ar.id);
    }
    wp.ars.clear();
    wp.triggers.clear();
    WakeAllSuspended(wp);
    DisarmSlot(slot);
    wp = WatchpointMeta{};
  }
}

void KivatiKernel::HandleThreadExit(ThreadId tid) {
  for (unsigned slot = 0; slot < wps_.size(); ++slot) {
    WatchpointMeta& wp = wps_[slot];
    if (wp.guard && wp.guard_for == tid) {
      EmitGuardRelease(wp, slot);
      DisarmSlot(slot);
      WakeAllSuspended(wp);
      wp = WatchpointMeta{};
      continue;
    }
    const std::size_t before = wp.ars.size();
    wp.ars.erase(std::remove_if(wp.ars.begin(), wp.ars.end(),
                                [&](const ArInstance& ar) { return ar.owner == tid; }),
                 wp.ars.end());
    if (before != 0 && wp.ars.empty() && wp.hw == WatchpointMeta::HwState::kArmed) {
      wp.triggers.clear();
      WakeAllSuspended(wp);
      DisarmSlot(slot);
      wp = WatchpointMeta{};
    }
    wp.suspended.erase(std::remove_if(wp.suspended.begin(), wp.suspended.end(),
                                      [&](const SuspendedThread& s) { return s.tid == tid; }),
                       wp.suspended.end());
  }
  sync_waiters_.erase(std::remove_if(sync_waiters_.begin(), sync_waiters_.end(),
                                     [&](const SyncWaiter& w) { return w.tid == tid; }),
                      sync_waiters_.end());
  thread_ars_.erase(tid);
  paused_threads_.erase(tid);
  timeout_immune_.erase(tid);
  retry_anchor_.erase(tid);
  std::erase_if(pending_ars_, [&](const auto& entry) { return entry.second.ar.owner == tid; });
}

void KivatiKernel::RemoveArFromThreadTable(ThreadId owner, ArId ar) {
  auto it = thread_ars_.find(owner);
  if (it == thread_ars_.end()) {
    return;
  }
  auto& list = it->second;
  for (auto entry = list.begin(); entry != list.end(); ++entry) {
    if (entry->ar == ar) {
      list.erase(entry);
      break;
    }
  }
}

void KivatiKernel::EvaluateViolations(const WatchpointMeta& wp, const ArInstance& ar,
                                      AccessType second, ProgramCounter second_pc) {
  for (const TriggerRecord& trigger : wp.triggers) {
    if (trigger.when < ar.begin_at) {
      continue;  // trigger belongs to an earlier overlapping AR
    }
    if (ArNonSerializable(ar, trigger.type, second)) {
      LogViolation(ar, wp.addr, wp.size, trigger, second, second_pc);
    }
  }
}

void KivatiKernel::LogViolation(const ArInstance& ar, Addr addr, unsigned size,
                                const TriggerRecord& trigger, AccessType second,
                                ProgramCounter second_pc) {
  ViolationRecord record;
  record.ar_id = ar.id;
  record.addr = addr;
  record.size = size;
  record.local_thread = ar.owner;
  record.first_pc = ar.begin_pc;
  record.first = ar.first;
  record.second_pc = second_pc;
  record.second = second;
  record.remote_thread = trigger.remote;
  record.remote_pc = trigger.remote_pc;
  record.remote = trigger.type;
  record.when = machine_.now();
  record.prevented = trigger.prevented;
  machine_.trace().AddViolation(record);
  ++stats().violations_detected;
  if (record.prevented) {
    ++stats().violations_prevented;
  }
  if (events().Wants(EventKind::kViolation)) {
    events().Emit({.when = machine_.now(),
                   .kind = EventKind::kViolation,
                   .thread = ar.owner,
                   .ar = ar.id,
                   .addr = addr,
                   .pc = second_pc,
                   .detail = record.prevented ? 1u : 0u});
  }
  KIVATI_LOG(kInfo) << ToString(record);
}

}  // namespace kivati
