// Measurement probes the benchmark installs from outside the program.
//
// HookProbe sits between a Machine and its KivatiRuntime (Machine::set_hooks)
// and SinkProbe between a TraceHub and the happens-before oracle. Both
// forward every call unchanged, so a probed run simulates exactly what an
// unprobed run does (probes_test checks the RunRecord and ScheduleTrace
// byte for byte); they only count calls and clock the coarse ones.
// OnKernelEntry and IdleSyncIsNoOp are counted but never clocked: above two
// cores they fire about once per busy instruction per idle core, and a clock
// read there would dominate the run.
//
// SpanLog keeps one run's spans in memory: name, start, end and parent. Hook
// and detector calls are far too many to keep one span each, so each run
// stores one collapsed child span per probe whose duration is the summed
// call time (SpanLog::AddCollapsed).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "exp/run_spec.h"
#include "sched/hooks.h"
#include "trace/sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct CallTimer {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

enum TimedHook { kBeginAtomic, kEndAtomic, kClearAr, kTrap, kContextSwitch, kTimedHooks };

// Names used in metric keys, indexed by TimedHook.
extern const char* const kTimedHookNames[kTimedHooks];

struct HookCounts {
  CallTimer timed[kTimedHooks];
  std::uint64_t timeouts = 0;
  std::uint64_t kernel_entries = 0;
  std::uint64_t idle_queries = 0;   // IdleSyncIsNoOp calls
  std::uint64_t idle_noop = 0;      // ... that answered true

  std::int64_t timed_ns() const;
  void Add(const HookCounts& other);
};

class HookProbe final : public kivati::KivatiHooks {
 public:
  explicit HookProbe(kivati::KivatiHooks& inner) : inner_(inner) {}

  const HookCounts& counts() const { return counts_; }

  void OnBeginAtomic(kivati::ThreadId thread, const kivati::Instruction& instr,
                     kivati::Addr ea) override;
  void OnEndAtomic(kivati::ThreadId thread, const kivati::Instruction& instr) override;
  void OnClearAr(kivati::ThreadId thread, std::uint32_t call_depth) override;
  bool OnWatchpointTrap(kivati::ThreadId thread, kivati::CoreId core, unsigned slot,
                        const kivati::MemAccess& access, kivati::ProgramCounter trap_pc) override;
  void OnKernelEntry(kivati::CoreId core) override;
  bool IdleSyncIsNoOp(kivati::CoreId core) const override;
  void OnContextSwitch(kivati::CoreId core, kivati::ThreadId prev, kivati::ThreadId next) override;
  void OnSuspensionTimeout(kivati::ThreadId thread) override;
  void OnThreadExit(kivati::ThreadId thread) override;

 private:
  kivati::KivatiHooks& inner_;
  mutable HookCounts counts_;  // IdleSyncIsNoOp is const
};

class SinkProbe final : public kivati::TraceSink {
 public:
  explicit SinkProbe(kivati::TraceSink& inner) : inner_(inner) {}

  const CallTimer& events() const { return events_; }

  std::uint32_t wants_mask() const override { return inner_.wants_mask(); }
  void OnEvent(const kivati::TraceEvent& event) override;

 private:
  kivati::TraceSink& inner_;
  CallTimer events_;
};

// The probes of one run. Declare it after the BuiltRun it is installed in:
// it must be destroyed, and so uninstalled, while the engine and the HB
// oracle it forwards to are still alive.
class RunProbes {
 public:
  RunProbes() = default;
  // Puts the runtime back in front of the machine; the SinkProbe detaches
  // itself from the hub.
  ~RunProbes();
  RunProbes(const RunProbes&) = delete;
  RunProbes& operator=(const RunProbes&) = delete;

  // Puts a HookProbe in front of the run's runtime (armed runs only) and a
  // SinkProbe in the HB oracle's place on the hub. BuildEngine attaches the
  // oracle last, so re-attaching the probe keeps the hub's sink order.
  void Install(kivati::exp::BuiltRun& run);

  HookCounts hook_counts() const;
  CallTimer sink_events() const;

 private:
  kivati::Machine* machine_ = nullptr;
  kivati::KivatiHooks* runtime_ = nullptr;
  std::optional<HookProbe> hooks_;
  std::optional<SinkProbe> sink_;
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same log, -1 for a root
};

class SpanLog {
 public:
  // Opens a span whose parent is the innermost open one; returns its index.
  int Open(const char* name);
  void Close(int index);
  // A child of the innermost open span covering `ns` of summed call time.
  void AddCollapsed(const char* name, std::int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the enclosing scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
